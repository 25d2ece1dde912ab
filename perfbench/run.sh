#!/usr/bin/env bash
# Builds the round-level benchmark from source and runs it:
#   bash perfbench/run.sh --workload paper-stream --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ (CARGO_TARGET_DIR, when set, names that
# directory instead).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/spans"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -spans-dir "$out/spans" "$@"

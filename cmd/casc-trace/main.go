// casc-trace analyzes recorded batch traces (JSON Lines produced by the
// batch simulator's Trace option or by casc-sim -trace): per-run summaries,
// round-by-round score series, and worker-load fairness. The replay
// subcommand re-runs a recorded scenario event stream and verifies the
// fresh decision trace is bitwise identical to the original.
//
// Usage:
//
//	casc-trace -in run.jsonl
//	casc-trace -in run.jsonl -load     # per-worker dispatch counts
//	casc-trace replay -events ev.jsonl -expect run.jsonl [-incremental] [-shards K]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"

	"casc/internal/scenario"
	"casc/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		replayMain(os.Args[2:])
		return
	}
	var (
		in   = flag.String("in", "", "trace file (JSON Lines)")
		load = flag.Bool("load", false, "print the per-worker dispatch distribution")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "casc-trace: -in required")
		os.Exit(2)
	}
	recs, err := trace.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	if err := trace.Validate(recs); err != nil {
		fatal(fmt.Errorf("trace fails validation: %w", err))
	}
	fmt.Printf("%d records\n\n", len(recs))
	fmt.Printf("%-16s %-8s %7s %12s %10s %8s %10s\n",
		"run", "solver", "rounds", "total score", "of UPPER", "pairs", "avg batch")
	for _, s := range trace.Summarize(recs) {
		fmt.Printf("%-16s %-8s %7d %12.2f %9.1f%% %8d %8.2fms\n",
			s.Run, s.Solver, s.Rounds, s.TotalScore, s.Ratio()*100,
			s.DispatchedPairs, s.MeanElapsedMS)
	}
	if *load {
		dist := trace.WorkerLoad(recs)
		type wl struct{ worker, count int }
		var list []wl
		for w, c := range dist {
			list = append(list, wl{w, c})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].count != list[j].count {
				return list[i].count > list[j].count
			}
			return list[i].worker < list[j].worker
		})
		fmt.Printf("\nworker load (%d workers ever dispatched)\n", len(list))
		max := 20
		if len(list) < max {
			max = len(list)
		}
		for _, e := range list[:max] {
			fmt.Printf("worker %6d: %d dispatches\n", e.worker, e.count)
		}
		if len(list) > max {
			fmt.Printf("... %d more\n", len(list)-max)
		}
	}
}

// replayMain is the replay subcommand: rebuild the plan from a recorded
// event stream, re-run it, and diff the fresh decision trace against the
// expected one — bitwise scores (Float64bits) and identical pair sets.
// Exits 1 on divergence, so CI can gate on replayability.
func replayMain(args []string) {
	fs := flag.NewFlagSet("casc-trace replay", flag.ExitOnError)
	var (
		events = fs.String("events", "", "recorded arrival event stream (casc-sim -record)")
		expect = fs.String("expect", "", "expected decision trace to compare against (casc-sim -trace); empty: just re-run and summarize")
		solver = fs.String("solver", "", "dispatch with this solver instead of the recorded one")
		incr   = fs.Bool("incremental", false, "replay through the persistent incremental engine")
		shards = fs.Int("shards", 0, "replay through a sharded server.Platform of this size (0: monolithic)")
		cfK    = fs.Int("counterfactual-k", 0, "re-solve this many alternates per round, matching the original run's setting (-1: all); required to reproduce cf: records")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *events == "" {
		fmt.Fprintln(os.Stderr, "casc-trace replay: -events required")
		os.Exit(2)
	}
	meta, evs, err := trace.ReadEventsFile(*events)
	if err != nil {
		fatal(err)
	}
	plan, err := scenario.FromEvents(meta, evs)
	if err != nil {
		fatal(err)
	}
	tmp, err := os.CreateTemp("", "casc-replay-*.jsonl")
	if err != nil {
		fatal(err)
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	defer tmp.Close()
	tw := trace.NewWriter(tmp)
	rep, err := scenario.Run(context.Background(), scenario.RunConfig{
		Plan:            plan,
		Solver:          *solver,
		CounterfactualK: *cfK,
		Incremental:     *incr,
		Shards:          *shards,
		Trace:           tw,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed scenario %q: %d rounds, solver %s, score %.2f, dispatched %d\n",
		meta.Scenario, plan.Rounds(), rep.Solver, rep.Score, rep.Dispatched)
	if *expect == "" {
		return
	}
	if _, err := tmp.Seek(0, 0); err != nil {
		fatal(err)
	}
	got, err := trace.Read(tmp)
	if err != nil {
		fatal(err)
	}
	want, err := trace.ReadFile(*expect)
	if err != nil {
		fatal(err)
	}
	if err := diffDecisions(want, got); err != nil {
		fmt.Fprintf(os.Stderr, "casc-trace replay: DIVERGED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("replay matches %s bitwise: %d records, scores and pair sets identical\n",
		*expect, len(got))
}

// diffDecisions compares two decision traces record by record. Chosen and
// counterfactual records both participate; elapsed times are ignored (wall
// clock), scores compare bitwise.
func diffDecisions(want, got []trace.Record) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d records, expected %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Run != g.Run || w.Round != g.Round || w.Solver != g.Solver {
			return fmt.Errorf("record %d identity (%s,%d,%s) != expected (%s,%d,%s)",
				i, g.Run, g.Round, g.Solver, w.Run, w.Round, w.Solver)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			return fmt.Errorf("record %d (%s round %d) score %v != expected %v",
				i, w.Run, w.Round, g.Score, w.Score)
		}
		if !reflect.DeepEqual(w.Pairs, g.Pairs) {
			return fmt.Errorf("record %d (%s round %d) dispatched pairs differ", i, w.Run, w.Round)
		}
	}
	// Belt and braces: the runs present must match, too.
	runs := func(recs []trace.Record) string {
		seen := map[string]bool{}
		var names []string
		for _, r := range recs {
			if !seen[r.Run] {
				seen[r.Run] = true
				names = append(names, r.Run)
			}
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	if a, b := runs(want), runs(got); a != b {
		return fmt.Errorf("runs %q != expected %q", b, a)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "casc-trace: %v\n", err)
	os.Exit(1)
}

// Command perfbench is the round-level benchmark of the casc platform. It
// drives the platform from outside, through its public entry points only —
// batch.Run with a Source and Config.Observer, and server.Platform.Handler
// behind a loopback listener — times every round and request, checks every
// output, and prints the end-to-end metrics by name and unit. With -trace 1
// it runs the workload a second time with timing wrappers around the calls
// into each layer and prints the per-layer breakdown instead.
//
//	perfbench -workload paper-stream -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// A failed output check makes the command exit 1; README.md in this
// directory lists the workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric of the catalogue BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the platform sees; every workload
// prints all of them with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_tail", "ms"},
	{"dispatched_per_s", "1/s"},
	{"score_per_round", "score"},
	{"dispatch_rate", "ratio"},
	{"live_heap_mb", "MB"},
	{"req_ms_p50", "ms"},
	{"req_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the traced run's metrics; every workload prints all of
// them with -trace 1, as 0 for layers the workload does not reach.
var perLayer = []metricDef{
	{"batch.build_ms", "ms"},
	{"batch.solve_ms", "ms"},
	{"batch.rest_ms", "ms"},
	{"assign.upper_ms", "ms"},
	{"assign.validate_ms", "ms"},
	{"assign.solve_calls", "count"},
	{"assign.solve_self_ms", "ms"},
	{"coop.quality_calls", "count"},
	{"model.valid_pairs", "count"},
	{"model.pool_workers", "count"},
	{"model.open_tasks", "count"},
	{"incremental.carried", "count"},
	{"incremental.resolved", "count"},
	{"incremental.carry_ratio", "ratio"},
	{"incremental.edges", "count"},
	{"trace.bytes_per_round", "bytes"},
	{"server.workers_ms", "ms"},
	{"server.tasks_ms", "ms"},
	{"server.ratings_ms", "ms"},
	{"server.batch_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"runtime.alloc_mb_per_round", "MB"},
	{"runtime.gc_cycles_per_round", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.round_wall_ms_mean", "ms"},
	{"trace.round_ms_p50", "ms"},
	{"trace.overhead_ms", "ms"},
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration // timed window of one phase
	traced  bool
	toy     bool // tiny inputs, for the benchmark's own tests
}

// workload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	run  func(ctx context.Context, o options, r *report) error
}

var workloads = []benchWorkload{
	{"paper-stream", runPaperStream},
	{"churn-incremental", runChurnIncremental},
	{"http-platform", runHTTPPlatform},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// report collects one invocation's outcome.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // human-readable lines printed before the JSON
	failures  []string
	spans     *spanLog // traced run only
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// resultLine is the JSON object the benchmark ends its output with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the catalogue's metrics as a table and then as the JSON
// result line. It returns the exit code.
func (r *report) emit(stdout, stderr io.Writer, defs []metricDef) int {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g %s (%d failed of %d operations)\n", "error_rate", errRate, "ratio", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-stream, churn-incremental or http-platform")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 10, "timed window of one run, in seconds")
	traceFlag := fs.Int("trace", 0, "1: add the traced run and print the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "traced run: write the spans as JSON into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (paper-stream, churn-incremental, http-platform), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	return execute(w, o, *spansDir, stdout, stderr)
}

// execute runs one workload and prints its result; it returns the exit
// code.
func execute(w benchWorkload, o options, spansDir string, stdout, stderr io.Writer) int {
	r := newReport()
	if o.traced {
		// Layers the workload does not reach report 0.
		for _, d := range perLayer {
			r.set(d.name, 0)
		}
	}
	if err := w.run(context.Background(), o, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		if spansDir != "" && r.spans != nil {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
			if err := r.spans.writeFile(path, w.name, o.seed); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			r.note("spans: %d written to %s (%d dropped)", len(r.spans.spans), path, r.spans.dropped)
		}
	}
	return r.emit(stdout, stderr, defs)
}

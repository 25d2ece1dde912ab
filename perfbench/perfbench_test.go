package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/model"
	"casc/internal/server"
	"casc/internal/workload"
)

// runToy runs one workload at toy size and returns its exit code and the
// decoded result line.
func runToy(t *testing.T, w benchWorkload, traced bool) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{seed: 7, seconds: 50 * time.Millisecond, traced: traced, toy: true}
	code := execute(w, o, t.TempDir(), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s\n%s", w.name, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			code, res, out := runToy(t, w, traced)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, result %+v\n%s", w.name, traced, code, res, out)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a number in %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which declares
// the benchmark's workloads and metrics, in step with what the program
// prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s (%s), the program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRoundCheckerCatchesCorruptAssignments(t *testing.T) {
	p := workload.Default().WithSeed(3)
	p.NumWorkers, p.NumTasks = 200, 40
	in, err := p.Instance(0, model.IndexRTree)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assign.NewGT(assign.GTOptions{}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var chk roundChecker
	score, dispatched, failure := chk.check(in, a)
	if failure != "" || dispatched == 0 || score <= 0 {
		t.Fatalf("clean assignment: score %v, %d dispatched, failure %q", score, dispatched, failure)
	}
	var groups []int // tasks holding a dispatched group
	for ti, ws := range a.TaskWorkers {
		if len(ws) >= in.B {
			groups = append(groups, ti)
		}
	}
	if len(groups) < 2 {
		t.Fatalf("need two dispatched groups, have %d", len(groups))
	}
	corruptions := map[string]func(c *model.Assignment){
		"worker in two groups": func(c *model.Assignment) {
			c.TaskWorkers[groups[1]] = append(c.TaskWorkers[groups[1]], c.TaskWorkers[groups[0]][0])
		},
		"worker twice in a group": func(c *model.Assignment) {
			ws := c.TaskWorkers[groups[0]]
			ws[1] = ws[0]
		},
		"unknown worker": func(c *model.Assignment) {
			c.TaskWorkers[groups[0]][0] = len(in.Workers)
		},
		"tasks missing": func(c *model.Assignment) {
			c.TaskWorkers = c.TaskWorkers[:len(c.TaskWorkers)-1]
		},
	}
	for name, corrupt := range corruptions {
		c := a.Clone()
		corrupt(c)
		if _, _, failure := chk.check(in, c); failure == "" {
			t.Errorf("%s: the check passed", name)
		}
	}
}

// newCheckEnv returns an httpEnv holding just the client-side view the
// batch check reads, and a pointer to its failure count.
func newCheckEnv(alive []int, open map[int]float64) (*httpEnv, *int) {
	failed := 0
	e := &httpEnv{
		script:  &httpScript{horizon: 3},
		open:    open,
		isAlive: map[int]struct{}{},
		batches: 1,
		failed:  func(string, ...any) { failed++ },
	}
	for _, id := range alive {
		e.isAlive[id] = struct{}{}
	}
	return e, &failed
}

func TestHTTPCheckCatchesCorruptResponses(t *testing.T) {
	good := server.BatchResponse{
		Pairs: []server.PairJSON{{Worker: 1, Task: 10}, {Worker: 2, Task: 10}, {Worker: 3, Task: 10},
			{Worker: 4, Task: 11}, {Worker: 5, Task: 11}, {Worker: 6, Task: 11}},
		Score:           1.5,
		DispatchedTasks: 2,
	}
	cases := map[string]func(b *server.BatchResponse){
		"clean":              func(*server.BatchResponse) {},
		"unknown worker":     func(b *server.BatchResponse) { b.Pairs[0].Worker = 99 },
		"worker twice":       func(b *server.BatchResponse) { b.Pairs[3].Worker = 1 },
		"group below B":      func(b *server.BatchResponse) { b.Pairs = b.Pairs[:5]; b.Pairs[4].Task = 12 },
		"task not open":      func(b *server.BatchResponse) { b.Pairs[3].Task, b.Pairs[4].Task, b.Pairs[5].Task = 13, 13, 13 },
		"dispatch miscount":  func(b *server.BatchResponse) { b.DispatchedTasks = 3 },
		"score without work": func(b *server.BatchResponse) { b.Pairs, b.DispatchedTasks = nil, 0 },
		"expiry miscount":    func(b *server.BatchResponse) { b.ExpiredTasks = 1 },
	}
	for name, corrupt := range cases {
		e, failed := newCheckEnv([]int{1, 2, 3, 4, 5, 6}, map[int]float64{10: 3, 11: 3, 12: 3})
		b := good
		b.Pairs = append([]server.PairJSON(nil), good.Pairs...)
		corrupt(&b)
		e.check(&httpRound{batch: b})
		if got := *failed > 0; got != (name != "clean") {
			t.Errorf("%s: %d failures", name, *failed)
		}
	}
}

func TestHTTPFailedRequestCounts(t *testing.T) {
	p := httpSize(true)
	r := newReport()
	e, err := startHTTPEnv(p, newHTTPScript(p, 1), false, r.fail)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var calls []call
	if _, err := e.do("POST", "/ratings", []byte(`{"task_id":12345,"score":0.5}`), routeRatings, http.StatusOK, &calls); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("a rejected rating counted %d failures, want 1", r.failed)
	}
	var out, errs bytes.Buffer
	r.attempted = 1
	if code := r.emit(&out, &errs, nil); code == 0 {
		t.Fatalf("a failed check exited 0:\n%s", out.String())
	}
}

// TestChurnScoresMatchScratch runs the churn workload's inputs through the
// incremental engine, as churn-incremental does, and through the
// from-scratch round loop: per-round scores must agree bitwise.
func TestChurnScoresMatchScratch(t *testing.T) {
	p := churnParams{grid: 10, rounds: 12, warm: 1, active: 1}
	f := churnFeed(p, 5)
	stats, res, err := simulate(context.Background(), churnSpec(p), f, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.checkFailure != "" {
			t.Fatal(st.checkFailure)
		}
	}
	scratch, err := batch.Run(context.Background(), batch.Config{
		Solver: assign.NewGT(assign.GTOptions{}),
		Rounds: p.rounds,
		B:      f.b,
	}, f)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := 0
	for i, b := range scratch.Batches {
		dispatched += b.DispatchedTasks
		if math.Float64bits(b.Score) != math.Float64bits(res.Batches[i].Score) {
			t.Errorf("round %d: incremental score %v, scratch %v", i, res.Batches[i].Score, b.Score)
		}
	}
	if dispatched == 0 {
		t.Fatal("nothing dispatched; the comparison is empty")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs[:50]); v != 40 || pct != 80 {
		t.Errorf("50 samples: tail %v at p%v, want 40 at p80", v, pct)
	}
	xs = make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 4500 || pct != 90 {
		t.Errorf("5000 samples: tail %v at p%v, want the p90 cap, 4500", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("3 samples: tail %v at p%v, want the largest", v, pct)
	}
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"casc/internal/assign"
	"casc/internal/model"
)

// roundChecker verifies a solved round from outside the platform: no worker
// serves two tasks, and every dispatched group (one reaching B) holds at
// least B distinct workers. It returns the Eq. 2 score of the dispatched
// groups, summed in task order as the platform dispatches them, so it must
// equal BatchStats.Score bitwise.
type roundChecker struct {
	seen  []int // seen[w] == stamp: worker position w already holds a task
	stamp int
}

func (c *roundChecker) check(in *model.Instance, a *model.Assignment) (score float64, dispatched int, failure string) {
	if a == nil || len(a.TaskWorkers) != len(in.Tasks) {
		return 0, 0, "assignment does not cover the round's tasks"
	}
	if len(c.seen) < len(in.Workers) {
		c.seen = make([]int, 2*len(in.Workers))
	}
	c.stamp++
	for ti, ws := range a.TaskWorkers {
		for _, w := range ws {
			if w < 0 || w >= len(in.Workers) {
				return 0, 0, fmt.Sprintf("task %d holds unknown worker position %d", in.Tasks[ti].ID, w)
			}
			if c.seen[w] == c.stamp {
				return 0, 0, fmt.Sprintf("worker %d holds two tasks", in.Workers[w].ID)
			}
			c.seen[w] = c.stamp
		}
		if len(ws) < in.B {
			continue
		}
		dispatched++
		score += in.GroupQuality(ws, in.Tasks[ti].Capacity)
	}
	return score, dispatched, ""
}

// timedSolver is the traced run's decorator around Config.Solver: it keeps
// the interval of every Solve call until the Observer collects them.
type timedSolver struct {
	inner assign.Solver
	calls []interval
}

func (s *timedSolver) Name() string { return s.inner.Name() }

func (s *timedSolver) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	start := time.Now()
	a, err := s.inner.Solve(ctx, in)
	s.calls = append(s.calls, interval{start, time.Now()})
	return a, err
}

// SolveWarm keeps the inner solver's warm starts, which the incremental
// engine asks for through assign.SolveMaybeWarm; without it the engine's
// warm cache would stay empty and the traced run would do less work.
func (s *timedSolver) SolveWarm(ctx context.Context, in *model.Instance, warm *assign.Warm) (*model.Assignment, error) {
	start := time.Now()
	a, err := assign.SolveMaybeWarm(ctx, s.inner, in, warm)
	s.calls = append(s.calls, interval{start, time.Now()})
	return a, err
}

// countingQuality is the traced run's wrapper around the Source's quality
// model. Every workload solves monolithically on one goroutine, so a plain
// counter suffices.
type countingQuality struct {
	model.QualityModel
	calls int64
}

func (q *countingQuality) Quality(i, k int) float64 {
	q.calls++
	return q.QualityModel.Quality(i, k)
}

// countingSink is the trace sink: it counts the bytes of the records the
// platform writes and drops them.
type countingSink struct{ n int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// memPoint is a reading of the runtime's allocation and GC counters.
type memPoint struct {
	alloc   uint64 // bytes allocated
	gcs     uint32
	pauseNs uint64
}

func readMem() memPoint {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memPoint{m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

func (p memPoint) minus(q memPoint) memPoint {
	return memPoint{p.alloc - q.alloc, p.gcs - q.gcs, p.pauseNs - q.pauseNs}
}

// liveHeapMB forces a collection and returns the heap still in use, in MB.
// Callers take it while the run's state is live.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// addSpans records one traced round: the round itself, and under it the
// build, solve and rest stages. Build and solve are placed from their
// BatchStats durations: build starts with the round, solve follows it.
func (s *roundStat) addSpans(l *spanLog, round int) {
	root := l.add("round", 0, round, s.start, s.end)
	buildEnd := s.start.Add(s.build)
	solveEnd := buildEnd.Add(s.solve)
	l.add("batch.build", root, round, s.start, buildEnd)
	solve := l.add("batch.solve", root, round, buildEnd, solveEnd)
	for _, c := range s.solves {
		l.add("assign.solve", solve, round, c.start, c.end)
	}
	l.add("batch.rest", root, round, solveEnd, s.end)
}

// setBatchLayers reports a batch workload's traced phase as per-round
// means. batch.rest_ms is the round's wall time minus build and solve, so
// build + solve + rest is the traced round's mean wall time.
func setBatchLayers(r *report, tr *phase, untracedP50 float64) {
	n := float64(len(tr.timed))
	var (
		walls                                 = make([]float64, 0, len(tr.timed))
		cpus                                  = make([]float64, 0, len(tr.timed))
		build, solve, upper, validate, self   float64
		calls, quality, pairs, pool, open, tb float64
		carried, resolved, edges              float64
		alloc, gcs, pause                     float64
	)
	for _, s := range tr.timed {
		walls = append(walls, ms(s.wall()))
		cpus = append(cpus, ms(s.cpu))
		build += ms(s.build)
		solve += ms(s.solve)
		upper += ms(s.upper)
		validate += ms(s.validate)
		calls += float64(len(s.solves))
		for _, c := range s.solves {
			self += ms(c.end.Sub(c.start))
		}
		quality += float64(s.qualityCalls)
		pairs += float64(s.validPairs)
		pool += float64(s.pool)
		open += float64(s.open)
		carried += float64(s.carried)
		resolved += float64(s.resolved)
		edges += s.edges
		tb += float64(s.traceBytes)
		alloc += float64(s.mem.alloc) / 1e6
		gcs += float64(s.mem.gcs)
		pause += float64(s.mem.pauseNs) / 1e6
	}
	wall := mean(walls)
	r.set("batch.build_ms", build/n)
	r.set("batch.solve_ms", solve/n)
	r.set("batch.rest_ms", wall-(build+solve)/n)
	r.set("assign.upper_ms", upper/n)
	r.set("assign.validate_ms", validate/n)
	r.set("assign.solve_calls", calls/n)
	r.set("assign.solve_self_ms", self/n)
	r.set("coop.quality_calls", quality/n)
	r.set("model.valid_pairs", pairs/n)
	r.set("model.pool_workers", pool/n)
	r.set("model.open_tasks", open/n)
	r.set("incremental.carried", carried/n)
	r.set("incremental.resolved", resolved/n)
	ratio := 0.0
	if carried+resolved > 0 {
		ratio = carried / (carried + resolved)
	}
	r.set("incremental.carry_ratio", ratio)
	r.set("incremental.edges", edges/n)
	r.set("trace.bytes_per_round", tb/n)
	r.set("runtime.alloc_mb_per_round", alloc/n)
	r.set("runtime.gc_cycles_per_round", gcs/n)
	r.set("runtime.gc_pause_ms", pause/n)
	p50 := median(cpus)
	r.set("trace.round_wall_ms_mean", wall)
	r.set("trace.round_ms_p50", p50)
	r.set("trace.overhead_ms", p50-untracedP50)
}

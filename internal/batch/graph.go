package batch

import (
	"context"

	"casc/internal/assign"
	"casc/internal/incremental"
	"casc/internal/model"
)

// graph is the round's candidate graph: the live workers and open tasks,
// the instance planned from them, and the solve over it. Run's round loop
// drives either implementation through the same cadence,
// begin → addWorker*/addTask* → plan → solve → commit, and owns everything
// else (busy workers, patience, dispatch, accounting). Both keep workers and
// tasks in admission order with order-preserving removal, so for
// deterministic solvers the two are bitwise interchangeable.
type graph interface {
	// begin opens the round at time now and drops the tasks whose deadline
	// has passed, returning how many.
	begin(now float64) (expired int)
	addWorker(w model.Worker)
	addTask(t model.Task)
	// plan assembles the round's instance with its candidate lists; the
	// caller attaches Quality.
	plan() *model.Instance
	// solve solves in, the instance plan returned.
	solve(ctx context.Context, solver assign.Solver, in *model.Instance) (*model.Assignment, error)
	// commit ends the round: the workers and tasks at the given ascending
	// positions of the planned instance leave the graph.
	commit(a *model.Assignment, removeW, removeT []int)
	// size returns the live worker and task counts.
	size() (workers, tasks int)
	// quiescent reports whether, with no arrivals and no frees, no pending
	// task expires at now and every time gate (worker arrival, task
	// creation) had already passed at prevNow — the conditions under which
	// a round after a zero-valid-pair round repeats it.
	quiescent(now, prevNow float64) bool
}

// rebuild is the from-scratch graph: every round rebuilds the instance and
// its candidate lists (BuildCandidates) from the live pool.
type rebuild struct {
	b       int
	index   model.IndexKind
	now     float64
	pool    []model.Worker
	pending []model.Task
}

func (g *rebuild) begin(now float64) int {
	g.now = now
	live := g.pending[:0]
	for _, t := range g.pending {
		if t.Deadline > now {
			live = append(live, t)
		}
	}
	expired := len(g.pending) - len(live)
	g.pending = live
	return expired
}

func (g *rebuild) addWorker(w model.Worker) { g.pool = append(g.pool, w) }
func (g *rebuild) addTask(t model.Task)     { g.pending = append(g.pending, t) }

// plan hands the pool and pending slices to the instance without a copy;
// commit therefore never compacts them in place, leaving the round's
// instance intact for the trace and the observer.
func (g *rebuild) plan() *model.Instance {
	in := &model.Instance{B: g.b, Now: g.now, Workers: g.pool, Tasks: g.pending}
	in.BuildCandidates(g.index)
	return in
}

func (g *rebuild) solve(ctx context.Context, solver assign.Solver, in *model.Instance) (*model.Assignment, error) {
	return solver.Solve(ctx, in)
}

func (g *rebuild) commit(_ *model.Assignment, removeW, removeT []int) {
	g.pool = without(g.pool, removeW)
	g.pending = without(g.pending, removeT)
}

func (g *rebuild) size() (int, int) { return len(g.pool), len(g.pending) }

func (g *rebuild) quiescent(now, prevNow float64) bool {
	for _, t := range g.pending {
		if t.Deadline <= now || t.Created > prevNow {
			return false
		}
	}
	for _, w := range g.pool {
		if w.Arrive > prevNow {
			return false
		}
	}
	return true
}

// without returns xs minus the elements at the ascending positions, in
// order, in a new slice unless nothing is removed.
func without[T any](xs []T, positions []int) []T {
	if len(positions) == 0 {
		return xs
	}
	kept := make([]T, 0, len(xs)-len(positions))
	for i, p := 0, 0; i < len(xs); i++ {
		if p < len(positions) && positions[p] == i {
			p++
			continue
		}
		kept = append(kept, xs[i])
	}
	return kept
}

// engineGraph is the persistent graph of internal/incremental: the engine
// maintains candidate edges and components under churn, re-solves only the
// components touched since the previous round (warm-starting the solver)
// and carries the rest forward.
type engineGraph struct{ e *incremental.Engine }

func (g engineGraph) begin(now float64) int    { return len(g.e.BeginRound(now)) }
func (g engineGraph) addWorker(w model.Worker) { g.e.AddWorker(w) }
func (g engineGraph) addTask(t model.Task)     { g.e.AddTask(t) }
func (g engineGraph) plan() *model.Instance    { return g.e.Plan().In }
func (g engineGraph) size() (int, int)         { return g.e.NumWorkers(), g.e.NumTasks() }

// quiescent is always false: the engine never skips a round. A skipped
// round would still commit the departures of impatient workers, and Commit
// clears the dirty marks of a Plan that did not run.
func (g engineGraph) quiescent(_, _ float64) bool { return false }

// solve solves the engine's own planned round, which is in.
func (g engineGraph) solve(ctx context.Context, solver assign.Solver, _ *model.Instance) (*model.Assignment, error) {
	return g.e.Solve(ctx, solver)
}

func (g engineGraph) commit(a *model.Assignment, removeW, removeT []int) {
	g.e.Commit(a, removeW, removeT)
}

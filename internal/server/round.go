package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/model"
	"casc/internal/partition"
	"casc/internal/resilience"
)

// BatchResult reports one RunBatch round.
type BatchResult struct {
	Pairs           []model.Pair // worker ID → task ID pairs actually dispatched
	Score           float64
	Upper           float64
	DispatchedTasks int
	ExpiredTasks    int
	// Components is the number of validity-graph components this round;
	// BorderComponents of them crossed a shard boundary and were pinned to
	// the shard owning their lowest cell. GhostWorkers counts workers
	// solved by a shard other than their home.
	Components       int
	BorderComponents int
	GhostWorkers     int
}

// ErrBudgetExhausted reports a RunBatch whose Config.SolveBudget ran out
// before every shard delivered: either the request's deadline passed while
// it was queued for the round lock, or some shard's ladder had no rung
// finish in time. Nothing is dispatched — a partial round would break the
// K-shard vs one-shard equivalence — and the HTTP layer maps the error to
// 503 Service Unavailable + Retry-After.
var ErrBudgetExhausted = errors.New("server: solve budget exhausted")

// pinned is one shard's share of a round: the components pinned to it and
// how many of them cross a boundary or carry ghost workers.
type pinned struct {
	comps, border, ghosts int
}

// RunBatch executes one globally coordinated batch round of Algorithm 1
// with the named solver: expired tasks are dropped, the available workers
// and open tasks form one instance ordered by ID (so positions, and every
// solver tie-break, are the same for any K), the validity graph is split
// into components, each component is pinned to the shard owning its lowest
// cell, and every shard with pinned work solves its union sub-instance
// concurrently. When one shard owns every component — always so with one
// shard — it solves the round's instance in place. Groups reaching B are
// dispatched (their workers leave the pool, the tasks await ratings).
// Returns the dispatched pairs sorted by task, then worker.
//
// With Config.SolveBudget set, each shard's solve runs under a resilience
// ladder; if any shard exhausts its budget the round returns
// ErrBudgetExhausted and dispatches nothing.
func (p *Platform) RunBatch(ctx context.Context, solverName string) (*BatchResult, error) {
	if _, err := assign.ByName(solverName, 0); err != nil {
		return nil, err
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	if ctx.Err() != nil {
		// The request's solve deadline expired while it was queued for the
		// round lock: refuse instead of solving with no budget left.
		return nil, fmt.Errorf("%w: deadline passed while queued", ErrBudgetExhausted)
	}
	start := now()
	res := &BatchResult{}

	// Assemble the round's instance and components — rebuilt from the
	// registry, or maintained across rounds by the persistent engine. Both
	// produce the same ID-ordered instance.
	var in *model.Instance
	var comps []partition.Component
	var homes []int // home shard of each instance worker
	var seed int64
	if p.inc != nil {
		in, comps, homes, seed = p.incrementalRound(res)
	} else {
		in, comps, homes, seed = p.snapshotRound(res)
	}
	// The history is keyed by worker ID, the instance by position. Ratings
	// wait on batchMu, so the history stays fixed for the whole round.
	ids := make([]int, len(in.Workers))
	for i, w := range in.Workers {
		ids[i] = w.ID
	}
	in.Quality = coop.NewSubset(p.history, ids)
	res.Components = len(comps)

	// Pin each component to the shard owning its lowest cell.
	owners := make([]int, len(comps))
	pins := make([]pinned, len(p.shards))
	for ci, comp := range comps {
		s, border := p.pin(in, comp)
		owners[ci] = s
		pins[s].comps++
		if border {
			pins[s].border++
			res.BorderComponents++
		}
		for _, w := range comp.Workers {
			if homes[w] != s {
				pins[s].ghosts++
				res.GhostWorkers++
			}
		}
	}
	for s := range p.shards {
		m := &p.shards[s].m
		m.compGauge.Set(float64(pins[s].comps))
		m.border.Add(uint64(pins[s].border))
		m.ghosts.Add(uint64(pins[s].ghosts))
	}

	a, err := p.solve(ctx, solverName, seed, in, comps, owners)
	if err != nil {
		return nil, err
	}
	res.Upper = assign.Upper(in)
	p.commit(in, a, homes, res)
	p.pm.batchSec.Observe(now().Sub(start).Seconds())
	return res, nil
}

// solve runs every shard's solve and merges the results into one
// assignment over in. One shard owning every component solves in itself,
// with one quality memo shared by the solve, Upper and scoring; otherwise
// each shard solves the sub-instance of its components, which preserves
// relative index order, so the deterministic solvers produce exactly the
// slice of the one-shard result covering those components. Parallel solves
// read the quality model concurrently and get no memo (coop.Cached is not
// safe for concurrent use); in.Quality is memoized for what follows.
func (p *Platform) solve(ctx context.Context, solverName string, seed int64, in *model.Instance, comps []partition.Component, owners []int) (*model.Assignment, error) {
	one := len(owners) > 0
	for _, s := range owners {
		one = one && s == owners[0]
	}
	if one {
		s := owners[0]
		cached := p.parallelism == 0
		if cached {
			in.Quality = coop.NewCached(in.Quality)
		}
		a, err := p.solveShard(ctx, s, solverName, seed, in)
		if err != nil {
			return nil, err
		}
		if !cached {
			in.Quality = coop.NewCached(in.Quality)
		}
		return a, nil
	}
	subs := make([]*model.SubIndex, len(p.shards))
	results := make([]*model.Assignment, len(p.shards))
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for s := range p.shards {
		var workers, tasks []int
		for ci, comp := range comps {
			if owners[ci] == s {
				workers = append(workers, comp.Workers...)
				tasks = append(tasks, comp.Tasks...)
			}
		}
		if len(tasks) == 0 {
			continue
		}
		var sub *model.Instance
		sub, subs[s] = in.SubInstance(workers, tasks)
		if p.parallelism == 0 {
			sub.Quality = coop.NewCached(sub.Quality)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = p.solveShard(ctx, s, solverName, seed, sub)
		}(s)
	}
	wg.Wait()
	a := model.NewAssignment(in)
	for s := range p.shards {
		if errs[s] != nil {
			return nil, errs[s]
		}
		if results[s] != nil {
			subs[s].Lift(results[s], a)
		}
	}
	in.Quality = coop.NewCached(in.Quality) // single-threaded from here on
	return a, nil
}

// solveShard solves shard s's pinned instance through the solver stack.
// Its seed is the round's, mixed with the shard ID.
func (p *Platform) solveShard(ctx context.Context, s int, solverName string, seed int64, in *model.Instance) (*model.Assignment, error) {
	t0 := now()
	solver, err := assign.ByName(solverName, assign.ComponentSeed(seed, s))
	if err != nil {
		return nil, err
	}
	var chaos *resilience.ChaosConfig
	if p.chaos != nil {
		cc := *p.chaos
		cc.Seed = assign.ComponentSeed(cc.Seed, s)
		cc.Metrics = p.metrics
		chaos = &cc
	}
	solver = resilience.Stack(solver, resilience.StackConfig{
		Parallel: p.parallelism != 0,
		Workers:  p.parallelism, // negative: GOMAXPROCS
		Seed:     seed,
		Metrics:  p.metrics,
		Budget:   p.solveBudget,
		Chaos:    chaos,
	})
	var a *model.Assignment
	if ladder, ok := solver.(*resilience.Ladder); ok {
		var out resilience.Outcome
		a, out = ladder.SolveBudgeted(ctx, in)
		if out.Exhausted {
			return nil, fmt.Errorf("%w: shard %d had no rung finish within %v",
				ErrBudgetExhausted, s, p.solveBudget)
		}
	} else if a, err = solver.Solve(ctx, in); err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	m := &p.shards[s].m
	m.solves.Inc()
	m.solveSec.Observe(now().Sub(t0).Seconds())
	return a, nil
}

// commit dispatches every group of a that reaches B: its workers leave the
// pool, its task awaits a rating owned by the shard of the task's region.
// It then advances the batch clock.
func (p *Platform) commit(in *model.Instance, a *model.Assignment, homes []int, res *BatchResult) {
	var engineW, engineT []int // instance positions leaving the engine
	p.mu.Lock()
	defer p.mu.Unlock()
	for ti, ws := range a.TaskWorkers {
		if len(ws) < p.b {
			continue // below B: keep the task open and the workers available
		}
		t := in.Tasks[ti]
		// Positions ascend with worker IDs; ws keeps the solver's member
		// order, in which GroupQuality sums.
		members := append([]int(nil), ws...)
		sort.Ints(members)
		grp := dispatchedGroup{loc: t.Loc, owner: p.geom.ShardOf(t.Loc), workers: make([]worker, len(members))}
		for i, wi := range members {
			w := worker{Worker: in.Workers[wi], home: homes[wi]}
			grp.workers[i] = w
			delete(p.workers, w.ID)
			p.shards[w.home].workers--
			res.Pairs = append(res.Pairs, model.Pair{Worker: w.ID, Task: t.ID})
		}
		score := in.GroupQuality(ws, t.Capacity)
		res.Score += score
		res.DispatchedTasks++
		p.dropTask(t.ID)
		p.dispatched[t.ID] = grp
		sh := &p.shards[grp.owner]
		sh.busy += len(members)
		sh.dispatched++
		sh.score += score
		p.busyCount += len(members)
		if p.inc != nil {
			engineT = append(engineT, ti)
			engineW = append(engineW, ws...)
		}
	}
	if p.inc != nil {
		p.inc.Commit(nil, engineW, engineT)
	}
	p.totalScore += res.Score
	p.batches++
	p.dispatchedTasks += res.DispatchedTasks
	p.pm.batches.Inc()
	p.pm.dispatched.Add(uint64(res.DispatchedTasks))
	p.pm.pairs.Add(uint64(len(res.Pairs)))
	p.pm.expired.Add(uint64(res.ExpiredTasks))
	if p.advance != nil {
		p.advance()
	}
	p.syncGauges()
}

// snapshotRound is the from-scratch round assembly: it drops expired tasks
// and copies the registry into an instance ordered by ID, then builds
// candidates and components. It returns the instance, its components, the
// home shard of each worker and the round's seed.
func (p *Platform) snapshotRound(res *BatchResult) (*model.Instance, []partition.Component, []int, int64) {
	p.mu.Lock()
	nowT, seed := p.clock(), int64(p.batches)
	for id, t := range p.tasks {
		if t.Deadline <= nowT {
			p.dropTask(id)
			res.ExpiredTasks++
		}
	}
	ws := make([]worker, 0, len(p.workers))
	for _, w := range p.workers {
		ws = append(ws, w)
	}
	ts := make([]model.Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		ts = append(ts, t.Task)
	}
	p.syncGauges()
	p.mu.Unlock()

	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	in := &model.Instance{B: p.b, Now: nowT, Workers: make([]model.Worker, len(ws)), Tasks: ts}
	homes := make([]int, len(ws))
	for i, w := range ws {
		in.Workers[i], homes[i] = w.Worker, w.home
	}
	in.BuildCandidates(model.IndexRTree)
	return in, partition.Components(in), homes, seed
}

// incrementalRound is the engine-backed round assembly: the engine expires
// tasks and re-validates its maintained edges, the arrivals queued since
// the last round are drained into it, and Plan assembles the same
// ID-ordered instance and components snapshotRound would have built,
// without touching the standing population. The registry lock is held
// only to take the arrivals and to apply the expiries.
func (p *Platform) incrementalRound(res *BatchResult) (*model.Instance, []partition.Component, []int, int64) {
	p.mu.Lock()
	nowT, seed := p.clock(), int64(p.batches)
	ws, ts := p.pendingW, p.pendingT
	p.pendingW, p.pendingT = nil, nil
	p.mu.Unlock()

	expired := p.inc.BeginRound(nowT)
	for _, w := range ws {
		p.inc.AddWorker(w)
	}
	for _, t := range ts {
		if t.Deadline <= nowT {
			// Expired while queued: the snapshot path would have dropped it
			// in this round's expiry sweep too.
			expired = append(expired, t.ID)
			continue
		}
		p.inc.AddTask(t)
	}
	r := p.inc.Plan()

	homes := make([]int, len(r.In.Workers))
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range expired {
		p.dropTask(id)
	}
	res.ExpiredTasks = len(expired)
	for i, w := range r.In.Workers {
		homes[i] = p.workers[w.ID].home
	}
	p.syncGauges()
	return r.In, r.Comps, homes, seed
}

// pin returns the shard owning the lowest cell any of the component's
// entities occupies, and whether the component touches more than one
// shard's region.
func (p *Platform) pin(in *model.Instance, comp partition.Component) (owner int, border bool) {
	if len(p.shards) == 1 {
		return 0, false
	}
	minCell := p.geom.Cells()
	first := -1
	for _, w := range comp.Workers {
		cell := p.geom.CellOf(in.Workers[w].Loc)
		minCell = min(minCell, cell)
		if s := p.geom.ShardOfCell(cell); first == -1 {
			first = s
		} else if s != first {
			border = true
		}
	}
	for _, t := range comp.Tasks {
		cell := p.geom.CellOf(in.Tasks[t].Loc)
		minCell = min(minCell, cell)
		if p.geom.ShardOfCell(cell) != first {
			border = true
		}
	}
	return p.geom.ShardOfCell(minCell), border
}

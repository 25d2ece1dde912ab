package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/coop"
	"casc/internal/incremental"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/trace"
	"casc/internal/workload"
)

// setupReps is how many times a run generates its inputs. setup_s is the
// median generation time plus the median time of the simulations' round 0,
// which constructs the platform and admits its initial population.
const setupReps = 5

// feed is a batch.Source over inputs generated in set-up, so a timed round
// only indexes slices.
type feed struct {
	workers [][]model.Worker
	tasks   [][]model.Task
	quality model.QualityModel
	b       int
}

func (f *feed) WorkersAt(r int) []model.Worker { return f.workers[r] }
func (f *feed) TasksAt(r int) []model.Task     { return f.tasks[r] }
func (f *feed) Quality() model.QualityModel    { return f.quality }

// batchSpec is one batch workload: a fixed-length simulation that a run
// repeats back to back, cycling through its input sets, until its time is
// spent. A repetition replays its input set, so its per-round scores must
// repeat bitwise.
type batchSpec struct {
	rounds int // rounds per simulation
	warm   int // leading rounds of each simulation left out of the samples
	gen    func(seed int64) *feed
	// config returns the platform configuration for one simulation; sink
	// receives the trace records when the workload writes a trace.
	config func(f *feed, solver assign.Solver, reg *metrics.Registry, sink io.Writer) batch.Config
}

// paperParams sizes paper-stream: Table II distributions (UNIF, a_j = 5,
// B = 3, τ = 3) with m workers and n tasks arriving every round, and a
// worker patience that lets the pool settle at about 2k workers.
type paperParams struct{ m, n, rounds, warm, patience int }

func paperSize(toy bool) paperParams {
	if toy {
		return paperParams{m: 40, n: 20, rounds: 6, warm: 2, patience: 3}
	}
	return paperParams{m: 300, n: 150, rounds: 40, warm: 16, patience: 3}
}

func paperSpec(p paperParams) batchSpec {
	return batchSpec{
		rounds: p.rounds,
		warm:   p.warm,
		gen: func(seed int64) *feed {
			w := workload.Default()
			w.NumWorkers, w.NumTasks = p.m, p.n
			universe := p.m * p.rounds
			f := &feed{quality: coop.Synthetic{N: universe, Seed: uint64(seed)}, b: w.B}
			base := seed << 20
			for round := 0; round < p.rounds; round++ {
				ws := w.WithSeed(base + int64(round)).Workers(float64(round))
				f.workers = append(f.workers, batch.RoundRobinIDs(ws, round, p.m, universe))
				ts := w.WithSeed(base + 1<<19 + int64(round)).Tasks(float64(round))
				for j := range ts {
					ts[j].ID = round*p.n + j
				}
				f.tasks = append(f.tasks, ts)
			}
			return f
		},
		config: func(f *feed, solver assign.Solver, reg *metrics.Registry, sink io.Writer) batch.Config {
			return batch.Config{
				Solver:   solver,
				Rounds:   p.rounds,
				B:        f.b,
				Patience: p.patience,
				Metrics:  reg,
				Trace:    trace.NewWriter(sink),
				TraceRun: "paper-stream",
			}
		},
	}
}

func runPaperStream(ctx context.Context, o options, r *report) error {
	return runBatchWorkload(ctx, o, r, paperSpec(paperSize(o.toy)))
}

// churnParams sizes churn-incremental: workload.NewChurn at the given grid
// with active new workers per active site and round, one simulation of the
// given length per repetition. With one arrival per active site instead of
// the default quorum the active pools grow by one worker a round, so the
// rounds stay alike and their median holds still from run to run.
type churnParams struct{ grid, rounds, warm, active int }

func churnSize(toy bool) churnParams {
	if toy {
		return churnParams{grid: 6, rounds: 5, warm: 1, active: 1}
	}
	return churnParams{grid: 24, rounds: 40, warm: 1, active: 1}
}

func churnFeed(p churnParams, seed int64) *feed {
	c := workload.NewChurn(workload.ChurnParams{GridSize: p.grid, Seed: seed, ActiveWorkers: p.active})
	f := &feed{quality: coop.Synthetic{N: c.MaxWorkers(p.rounds), Seed: uint64(seed)}, b: c.B()}
	for round := 0; round < p.rounds; round++ {
		f.workers = append(f.workers, c.WorkersAt(round))
		f.tasks = append(f.tasks, c.TasksAt(round))
	}
	return f
}

func churnSpec(p churnParams) batchSpec {
	return batchSpec{
		rounds: p.rounds,
		warm:   p.warm,
		gen:    func(seed int64) *feed { return churnFeed(p, seed) },
		config: func(f *feed, solver assign.Solver, reg *metrics.Registry, _ io.Writer) batch.Config {
			return batch.Config{
				Solver:      solver,
				Rounds:      p.rounds,
				B:           f.b,
				Metrics:     reg,
				Incremental: true,
			}
		},
	}
}

func runChurnIncremental(ctx context.Context, o options, r *report) error {
	return runBatchWorkload(ctx, o, r, churnSpec(churnSize(o.toy)))
}

// roundStat is what one round of a simulation measured.
type roundStat struct {
	start, end   time.Time     // previous Observer exit → this Observer entry
	cpu          time.Duration // process CPU time over the same window
	build, solve time.Duration
	score        float64 // BatchStats.Score
	checkScore   float64 // Eq. 2 of the dispatched groups, recomputed outside
	dispatched   int
	checkFailure string
	validPairs   int
	pool, open   int
	heapMB       float64 // untraced, last round only: live heap

	// Traced run only.
	upper, validate time.Duration // assign.Upper and Validate, re-timed
	solves          []interval    // Config.Solver calls
	qualityCalls    int64
	carried         uint64
	resolved        uint64
	edges           float64
	traceBytes      int64
	mem             memPoint // runtime counters over the round's window
}

func (s *roundStat) wall() time.Duration { return s.end.Sub(s.start) }

type interval struct{ start, end time.Time }

// inputSets is how many input sets a batch run generates from its seed.
// Its simulations cycle through them, so a run's medians average over
// several draws of the workload rather than one.
const inputSets = 4

// phase is one set of back-to-back simulations, untraced or traced.
type phase struct {
	timed  []*roundStat // post-warm-up rounds of every simulation
	scores [][]float64  // per-round scores of each input set's first simulation
	first  []*roundStat // timed rounds of the first cycle, one simulation per set
	heapMB []float64    // live heap at the last round of the first cycle's simulations
	coldS  []float64    // each simulation's round 0, in seconds
	sims   int
	// Tasks dispatched and expired over the first cycle.
	dispatched, expired int
}

func runBatchWorkload(ctx context.Context, o options, r *report, spec batchSpec) error {
	feeds := make([]*feed, inputSets)
	setup := make([]float64, setupReps)
	for i := range setup {
		start := cpuTime()
		for k := range feeds {
			feeds[k] = spec.gen(o.seed*inputSets + int64(k))
		}
		setup[i] = (cpuTime() - start).Seconds()
	}
	un, err := runPhase(ctx, spec, feeds, r, o.seconds, 0, nil)
	if err != nil {
		return err
	}
	rounds, disp := make([]float64, len(un.timed)), 0
	var total time.Duration
	for i, s := range un.timed {
		rounds[i] = ms(s.cpu)
		disp += s.dispatched
		total += s.cpu
	}
	p50 := median(rounds)
	if !o.traced {
		scores := make([]float64, len(un.first))
		for i, s := range un.first {
			scores[i] = s.score
		}
		tv, pct := tail(rounds)
		r.set("setup_s", median(setup)+median(un.coldS))
		r.set("round_ms_p50", p50)
		r.set("round_ms_tail", tv)
		r.set("dispatched_per_s", float64(disp)/total.Seconds())
		r.set("score_per_round", mean(scores))
		r.set("dispatch_rate", float64(un.dispatched)/float64(un.dispatched+un.expired))
		r.set("live_heap_mb", median(un.heapMB))
		// Every operation of a batch workload is a round.
		r.set("req_ms_p50", p50)
		r.set("req_ms_tail", tv)
		r.set("ops_per_s", float64(len(rounds))/total.Seconds())
		r.note("rounds: %d timed in %d simulations of %d over %d input sets (first %d of each left out); tail is p%.2f",
			len(rounds), un.sims, spec.rounds, inputSets, spec.warm, pct)
		return nil
	}
	r.spans = newSpanLog()
	tr, err := runPhase(ctx, spec, feeds, r, o.seconds, un.sims, r.spans)
	if err != nil {
		return err
	}
	for k := range un.scores {
		for i := range un.scores[k] {
			if math.Float64bits(un.scores[k][i]) != math.Float64bits(tr.scores[k][i]) {
				r.fail("input set %d round %d: traced score %v differs from untraced %v", k, i, tr.scores[k][i], un.scores[k][i])
			}
		}
	}
	setBatchLayers(r, tr, p50)
	return nil
}

// runPhase runs simulations of spec, cycling through the input sets in
// whole cycles: exactly sims of them, or with sims = 0 cycles until budget
// is spent. A non-nil spans log makes it the traced run: the solver, the
// quality model and the trace sink are wrapped, and each layer's share of
// the round is recorded.
func runPhase(ctx context.Context, spec batchSpec, feeds []*feed, r *report, budget time.Duration, sims int, spans *spanLog) (*phase, error) {
	ph := &phase{scores: make([][]float64, len(feeds))}
	deadline := time.Now().Add(budget)
	for sim := 0; ; sim++ {
		k := sim % len(feeds)
		if k == 0 && (sims > 0 && sim == sims || sims == 0 && sim > 0 && time.Now().After(deadline)) {
			break
		}
		stats, res, err := simulate(ctx, spec, feeds[k], spans != nil)
		if err != nil {
			return nil, err
		}
		ph.sims++
		r.attempted += len(stats)
		firstCycle := sim < len(feeds)
		if firstCycle {
			for _, b := range res.Batches {
				ph.scores[k] = append(ph.scores[k], b.Score)
			}
			ph.dispatched += res.DispatchedTasks
			ph.expired += res.ExpiredTasks
		}
		for i, st := range stats {
			if b := res.Batches[i]; math.Float64bits(b.Score) != math.Float64bits(ph.scores[k][i]) {
				r.fail("simulation %d round %d: score %v differs from %v, its input set's first", sim, i, b.Score, ph.scores[k][i])
			}
			if st.checkFailure != "" {
				r.fail("simulation %d round %d: %s", sim, i, st.checkFailure)
			} else if math.Float64bits(st.checkScore) != math.Float64bits(st.score) || st.dispatched != res.Batches[i].DispatchedTasks {
				r.fail("simulation %d round %d: dispatched %d groups scoring %v, platform reports %d scoring %v",
					sim, i, st.dispatched, st.checkScore, res.Batches[i].DispatchedTasks, st.score)
			}
			if i >= spec.warm {
				ph.timed = append(ph.timed, st)
				if firstCycle {
					ph.first = append(ph.first, st)
				}
			}
			if spans != nil {
				st.addSpans(spans, sim*spec.rounds+i)
			}
		}
		if spans == nil {
			ph.coldS = append(ph.coldS, stats[0].cpu.Seconds())
			if firstCycle {
				ph.heapMB = append(ph.heapMB, stats[len(stats)-1].heapMB)
			}
		}
	}
	return ph, nil
}

// simulate runs one simulation through batch.Run and measures it from the
// Observer: a round runs from the previous Observer's exit to this one's
// entry, so the Observer's own checks are not in it.
func simulate(ctx context.Context, spec batchSpec, f *feed, traced bool) ([]*roundStat, *batch.Result, error) {
	reg := metrics.NewRegistry()
	gt := assign.NewGT(assign.GTOptions{})
	// batch's assign.Instrument hands the registry to a bare *GT only; set
	// it here so the traced run, whose GT sits behind a timing decorator,
	// does the same work.
	gt.Metrics = reg
	var (
		solver  assign.Solver = gt
		sink    io.Writer     = io.Discard
		timed   *timedSolver
		q       *countingQuality
		counted *countingSink
		src     = f
	)
	if traced {
		timed = &timedSolver{inner: gt}
		solver = timed
		q = &countingQuality{QualityModel: f.quality}
		src = &feed{workers: f.workers, tasks: f.tasks, b: f.b, quality: q}
		counted = &countingSink{}
		sink = counted
	}
	cfg := spec.config(src, solver, reg, sink)
	stats := make([]*roundStat, spec.rounds)
	var (
		chk      roundChecker
		lastExit time.Time
		lastMem  memPoint
		prevQ    int64
		prevSink int64
		prevInc  [2]uint64
		lastCPU  time.Duration
	)
	cfg.Observer = func(ctx context.Context, round int, now float64, in *model.Instance, a *model.Assignment) error {
		enter := time.Now()
		st := &roundStat{start: lastExit, end: enter, cpu: cpuTime() - lastCPU}
		stats[round] = st
		if traced {
			// Read the counters before the checks below add to them.
			st.mem = readMem().minus(lastMem)
			st.qualityCalls = q.calls - prevQ
			st.traceBytes, prevSink = counted.n-prevSink, counted.n
			st.solves, timed.calls = timed.calls, nil
			carried := reg.Counter(incremental.MetricComponentsCarried, "").Value()
			resolved := reg.Counter(incremental.MetricComponentsResolved, "").Value()
			st.carried, st.resolved = carried-prevInc[0], resolved-prevInc[1]
			prevInc = [2]uint64{carried, resolved}
			st.edges = reg.Gauge(incremental.MetricEdges, "").Value()
		}
		if in != nil {
			st.checkScore, st.dispatched, st.checkFailure = chk.check(in, a)
			st.validPairs, st.pool, st.open = in.NumValidPairs(), len(in.Workers), len(in.Tasks)
			if traced {
				t0 := time.Now()
				assign.Upper(in)
				t1 := time.Now()
				if err := a.Validate(in); err != nil && st.checkFailure == "" {
					st.checkFailure = err.Error()
				}
				st.upper, st.validate = t1.Sub(t0), time.Since(t1)
			}
		}
		if round == spec.rounds-1 && !traced {
			st.heapMB = liveHeapMB()
		}
		if traced {
			prevQ = q.calls
			lastMem = readMem()
		}
		lastCPU = cpuTime()
		lastExit = time.Now()
		return nil
	}
	runtime.GC()
	if traced {
		lastMem = readMem()
	}
	lastCPU = cpuTime()
	lastExit = time.Now()
	res, err := batch.Run(ctx, cfg, src)
	if err != nil {
		return nil, nil, fmt.Errorf("batch.Run: %w", err)
	}
	for i, b := range res.Batches {
		stats[i].build, stats[i].solve, stats[i].score = b.Build, b.Elapsed, b.Score
	}
	return stats, res, nil
}

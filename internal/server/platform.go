// Package server exposes the CA-SC platform over HTTP: workers register
// with their locations and working areas, requesters post time-constrained
// multi-worker tasks, the platform runs batch assignments with any of the
// paper's solvers, and requesters rate finished tasks — ratings feed the
// Equation 1 cooperation-quality estimator, closing the loop the paper
// describes ("platforms allow task requesters to rate the results").
//
// The platform is split into K ≥ 1 spatial shards (package shard's
// Geometry): a routing Policy gives every worker and task a home shard, and
// each shard reports its own metric series. Batch rounds stay globally
// coordinated: every round gathers one world-wide instance, decomposes it
// into the connected components of its validity graph (package partition),
// pins each component to the shard that owns its lowest cell — components
// crossing a boundary are "border" components, and the workers they drag
// across it are ghosts — and lets every shard solve its pinned region
// concurrently. Because the paper's objective is additive over components
// and the solvers are decomposition-invariant for their deterministic
// family (TPG, GT, GT+LUB, EXACT), a K-shard platform commits
// bitwise the same rounds as a one-shard platform on the same seed and
// rating stream.
package server

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/shard"
)

// Platform is the in-memory spatial crowdsourcing platform. All methods
// are safe for concurrent use. One registry lock, mu, guards the workers,
// tasks and dispatched groups; RunBatch holds it only to snapshot a round
// and to commit it, never across the solve, so registrations and reads
// never wait on a solve. Rounds, ratings and the admin mutations serialize
// on batchMu, taken before mu, so a solve never sees its cooperation
// history or its entities change mid-round.
type Platform struct {
	b           int
	parallelism int           // Config.Parallelism
	solveBudget time.Duration // Config.SolveBudget
	chaos       *resilience.ChaosConfig
	geom        shard.Geometry
	router      shard.Policy
	admission   *shard.TokenBucket
	history     *coop.History // the one Equation 1 history, keyed by worker ID
	metrics     *metrics.Registry
	pprof       bool
	pm          platformMetrics

	batchMu sync.Mutex
	// inc is the persistent candidate-graph engine under Config.Incremental
	// (nil otherwise), guarded by batchMu.
	inc *incremental.Engine

	mu      sync.RWMutex
	clock   func() float64
	advance func() // steps the default batch clock; nil with Config.Clock

	workers    map[int]worker          // available workers by ID
	tasks      map[int]task            // open tasks by ID
	dispatched map[int]dispatchedGroup // dispatched, unrated groups by task ID
	shards     []shardState
	loads      []int // route's scratch

	// pendingW and pendingT queue the arrivals since the last incremental
	// round for the engine (Config.Incremental only).
	pendingW []model.Worker
	pendingT []model.Task

	nextWorkerID    int
	nextTaskID      int
	batches         int
	dispatchedTasks int
	busyCount       int // workers on dispatched, unrated tasks
	totalScore      float64
}

// worker is an available worker and its home shard.
type worker struct {
	model.Worker
	home int
}

// task is an open task and its home shard.
type task struct {
	model.Task
	home int
}

// dispatchedGroup is a dispatched task's worker group awaiting its rating:
// the members in ascending ID order, each with its home shard at dispatch
// (to count handoffs), the task location they rejoin the pool at, and the
// shard owning the rating — the one whose region holds the task.
type dispatchedGroup struct {
	workers []worker
	loc     geo.Point
	owner   int
}

// shardState is one shard's slice of the registry: the entities homed on
// it and the groups whose ratings it owns. The counts are guarded by mu;
// m is fixed at construction.
type shardState struct {
	workers, tasks, busy, dispatched int
	score                            float64
	m                                shardMetrics
}

// Metric names recorded by the platform. HTTP-layer names live in http.go.
const (
	MetricWorkersRegistered = "casc_platform_workers_registered_total"
	MetricTasksPosted       = "casc_platform_tasks_posted_total"
	MetricBatches           = "casc_platform_batches_total"
	MetricDispatchedTasks   = "casc_platform_dispatched_tasks_total"
	MetricDispatchedPairs   = "casc_platform_dispatched_pairs_total"
	MetricExpiredTasks      = "casc_platform_expired_tasks_total"
	MetricRatings           = "casc_platform_ratings_total"
	MetricAvailableWorkers  = "casc_platform_available_workers"
	MetricBusyWorkers       = "casc_platform_busy_workers"
	MetricOpenTasks         = "casc_platform_open_tasks"
	MetricTotalScore        = "casc_platform_total_score"
	MetricShards            = "casc_cluster_shards"
	MetricBatchSeconds      = "casc_cluster_batch_seconds"
)

// Per-shard metric names. Every series carries a shard="<id>" label, so one
// registry namespaces all K shards on a single GET /metrics page.
const (
	MetricShardWorkers          = "casc_shard_available_workers"
	MetricShardBusyWorkers      = "casc_shard_busy_workers"
	MetricShardOpenTasks        = "casc_shard_open_tasks"
	MetricShardScore            = "casc_shard_total_score"
	MetricShardRegistered       = "casc_shard_workers_registered_total"
	MetricShardPosted           = "casc_shard_tasks_posted_total"
	MetricShardRatings          = "casc_shard_ratings_total"
	MetricShardSolves           = "casc_shard_solves_total"
	MetricShardSolveSeconds     = "casc_shard_solve_seconds"
	MetricShardComponents       = "casc_shard_components"
	MetricShardBorderComponents = "casc_shard_border_components_total"
	MetricShardGhostWorkers     = "casc_shard_ghost_workers_total"
	MetricShardHandoffs         = "casc_shard_handoffs_total"
)

// platformMetrics holds the platform's resolved metric handles.
type platformMetrics struct {
	registered *metrics.Counter
	posted     *metrics.Counter
	batches    *metrics.Counter
	dispatched *metrics.Counter
	pairs      *metrics.Counter
	expired    *metrics.Counter
	ratings    *metrics.Counter
	availGauge *metrics.Gauge
	busyGauge  *metrics.Gauge
	openGauge  *metrics.Gauge
	scoreGauge *metrics.Gauge
	batchSec   *metrics.Histogram
}

// shardMetrics holds one shard's resolved metric handles.
type shardMetrics struct {
	availGauge *metrics.Gauge
	busyGauge  *metrics.Gauge
	openGauge  *metrics.Gauge
	scoreGauge *metrics.Gauge
	registered *metrics.Counter
	posted     *metrics.Counter
	ratings    *metrics.Counter
	solves     *metrics.Counter
	solveSec   *metrics.Histogram
	compGauge  *metrics.Gauge
	border     *metrics.Counter
	ghosts     *metrics.Counter
	handoffs   *metrics.Counter
}

func newShardMetrics(reg *metrics.Registry, id int) shardMetrics {
	lbl := metrics.L("shard", strconv.Itoa(id))
	return shardMetrics{
		availGauge: reg.Gauge(MetricShardWorkers, "Workers currently available, by shard.", lbl),
		busyGauge:  reg.Gauge(MetricShardBusyWorkers, "Workers on dispatched, unrated tasks, by shard.", lbl),
		openGauge:  reg.Gauge(MetricShardOpenTasks, "Tasks currently open, by shard.", lbl),
		scoreGauge: reg.Gauge(MetricShardScore, "Cumulative cooperation score dispatched, by shard.", lbl),
		registered: reg.Counter(MetricShardRegistered, "Workers ever registered, by shard.", lbl),
		posted:     reg.Counter(MetricShardPosted, "Tasks ever posted, by shard.", lbl),
		ratings:    reg.Counter(MetricShardRatings, "Ratings of tasks this shard owns, by shard.", lbl),
		solves:     reg.Counter(MetricShardSolves, "Batch rounds this shard solved pinned work in.", lbl),
		solveSec: reg.Histogram(MetricShardSolveSeconds, "Per-round solve latency of this shard's pinned region.",
			metrics.LatencyBuckets(), lbl),
		compGauge: reg.Gauge(MetricShardComponents, "Components pinned to this shard in the last round.", lbl),
		border:    reg.Counter(MetricShardBorderComponents, "Boundary-crossing components pinned to this shard.", lbl),
		ghosts:    reg.Counter(MetricShardGhostWorkers, "Workers solved here while homed on another shard.", lbl),
		handoffs:  reg.Counter(MetricShardHandoffs, "Workers re-homed to a different shard after a rating.", lbl),
	}
}

// Config configures a Platform.
type Config struct {
	// B is the least required number of workers per task (≥ 2).
	B int
	// Alpha and Omega parameterize the Equation 1 estimator (default 0.5
	// each, the paper's configuration).
	Alpha, Omega float64
	// K is the number of spatial shards (0 means 1).
	K int
	// Router is the placement policy for new workers and tasks (nil:
	// region affinity).
	Router shard.Policy
	// AdmissionRate, when positive, enables token-bucket admission control
	// at this many admitted requests per second on the mutating HTTP
	// endpoints; AdmissionBurst is the bucket capacity (0: ceil of rate).
	AdmissionRate  float64
	AdmissionBurst int
	// Clock returns the current platform time; defaults to a monotonic
	// batch counter advanced by RunBatch (useful for tests and demos).
	Clock func() float64
	// Metrics receives the platform's instrumentation and is served by
	// GET /metrics. Defaults to a fresh registry per platform; pass a
	// shared one to aggregate several platforms into one scrape target.
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// platform mux. Off by default: profiling endpoints expose internals
	// and cost CPU, so production deployments opt in explicitly.
	EnablePprof bool
	// Parallelism, when non-zero, decomposes each shard's solve into the
	// connected components of its validity graph and solves them
	// concurrently (assign.NewParallel): positive values bound the pool,
	// negative use runtime.GOMAXPROCS(0). The component gauges appear on
	// GET /metrics.
	Parallelism int
	// SolveBudget, when positive, bounds each POST /batch: the request runs
	// under a context deadline of this duration and every shard's solver
	// is wrapped in a resilience.Ladder (solver → TPG → RAND), so a slow
	// solve degrades to cheaper rungs instead of queueing without bound. A
	// round whose budget is exhausted — the deadline passed while queued,
	// or some shard had no rung finish — dispatches nothing and fails with
	// ErrBudgetExhausted, which the HTTP layer maps to 503 with a
	// Retry-After header.
	SolveBudget time.Duration
	// Chaos, when non-nil, wraps every ladder rung with seeded fault
	// injection (requires SolveBudget > 0); used by the chaos rehearsals.
	Chaos *resilience.ChaosConfig
	// Incremental maintains the candidate graph in a persistent engine
	// across rounds instead of rebuilding it from the registry each
	// RunBatch. Results are bitwise identical; only the per-round graph
	// work shrinks. Worker updates and removals and task cancellations are
	// refused in this mode.
	Incremental bool
}

// NewPlatform returns an empty platform.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.B < 2 {
		return nil, fmt.Errorf("server: B = %d, want ≥ 2", cfg.B)
	}
	if cfg.K == 0 {
		cfg.K = 1
	}
	geom, err := shard.NewGeometry(0, cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil && cfg.SolveBudget <= 0 {
		return nil, fmt.Errorf("server: chaos injection requires SolveBudget > 0")
	}
	if cfg.Alpha == 0 && cfg.Omega == 0 {
		cfg.Alpha, cfg.Omega = 0.5, 0.5
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	router := cfg.Router
	if router == nil {
		if router, err = shard.NewPolicy(shard.PolicyRegion); err != nil {
			return nil, err
		}
	}
	p := &Platform{
		b:           cfg.B,
		parallelism: cfg.Parallelism,
		solveBudget: cfg.SolveBudget,
		chaos:       cfg.Chaos,
		geom:        geom,
		router:      router,
		history:     coop.NewHistory(0, cfg.Alpha, cfg.Omega),
		metrics:     reg,
		pprof:       cfg.EnablePprof,
		workers:     make(map[int]worker),
		tasks:       make(map[int]task),
		dispatched:  make(map[int]dispatchedGroup),
		loads:       make([]int, cfg.K),
		pm: platformMetrics{
			registered: reg.Counter(MetricWorkersRegistered, "Workers ever registered."),
			posted:     reg.Counter(MetricTasksPosted, "Tasks ever posted."),
			batches:    reg.Counter(MetricBatches, "RunBatch calls completed."),
			dispatched: reg.Counter(MetricDispatchedTasks, "Tasks dispatched with ≥ B workers."),
			pairs:      reg.Counter(MetricDispatchedPairs, "Worker-and-task pairs dispatched."),
			expired:    reg.Counter(MetricExpiredTasks, "Tasks dropped past their deadline."),
			ratings:    reg.Counter(MetricRatings, "Requester ratings recorded."),
			availGauge: reg.Gauge(MetricAvailableWorkers, "Workers currently available."),
			busyGauge:  reg.Gauge(MetricBusyWorkers, "Workers on dispatched, unrated tasks."),
			openGauge:  reg.Gauge(MetricOpenTasks, "Tasks currently open."),
			scoreGauge: reg.Gauge(MetricTotalScore, "Cumulative cooperation score."),
			batchSec: reg.Histogram(MetricBatchSeconds, "End-to-end batch round latency.",
				metrics.LatencyBuckets()),
		},
	}
	reg.Gauge(MetricShards, "Number of spatial shards.").Set(float64(cfg.K))
	for s := 0; s < cfg.K; s++ {
		p.shards = append(p.shards, shardState{m: newShardMetrics(reg, s)})
	}
	if cfg.AdmissionRate > 0 {
		burst := cfg.AdmissionBurst
		if burst <= 0 {
			burst = int(cfg.AdmissionRate + 0.999)
		}
		if p.admission, err = shard.NewTokenBucket(cfg.AdmissionRate, burst, reg); err != nil {
			return nil, err
		}
	}
	if cfg.Incremental {
		p.inc = incremental.New(incremental.Config{B: cfg.B, OrderByID: true, Metrics: reg})
	}
	p.clock = cfg.Clock
	if p.clock == nil {
		p.startClock(0)
	}
	return p, nil
}

// startClock installs the default batch clock, reading start until the
// first RunBatch advances it.
func (p *Platform) startClock(start float64) {
	batch := start
	p.clock = func() float64 { return batch }
	p.advance = func() { batch++ }
}

// Metrics returns the platform's metrics registry (the one GET /metrics
// serves).
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// Now returns the current platform time.
func (p *Platform) Now() float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.clock()
}

// syncGauges refreshes the state gauges. Callers must hold p.mu.
func (p *Platform) syncGauges() {
	p.pm.availGauge.Set(float64(len(p.workers)))
	p.pm.busyGauge.Set(float64(p.busyCount))
	p.pm.openGauge.Set(float64(len(p.tasks)))
	p.pm.scoreGauge.Set(p.totalScore)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.m.availGauge.Set(float64(sh.workers))
		sh.m.busyGauge.Set(float64(sh.busy))
		sh.m.openGauge.Set(float64(sh.tasks))
		sh.m.scoreGauge.Set(sh.score)
	}
}

// checkWorker and checkTask are the domain checks every entity passes on
// its way in, whether it is registered, posted or restored from a
// snapshot: a worker's speed and radius are non-negative numbers, and a
// task needs room for at least B workers.
func checkWorker(speed, radius float64) error {
	if !(speed >= 0) || !(radius >= 0) {
		return fmt.Errorf("server: speed %v and radius %v must be non-negative", speed, radius)
	}
	return nil
}

func (p *Platform) checkTask(capacity int) error {
	if capacity < p.b {
		return fmt.Errorf("server: capacity %d below B=%d", capacity, p.b)
	}
	return nil
}

// route picks the home shard for an entity at loc. Callers must hold p.mu.
func (p *Platform) route(loc geo.Point) int {
	for s := range p.shards {
		p.loads[s] = p.shards[s].workers + p.shards[s].tasks
	}
	owner := p.geom.ShardOf(loc)
	s := p.router.Route(shard.RouteInfo{Loc: loc, Owner: owner, Loads: p.loads})
	if s < 0 || s >= len(p.shards) {
		s = owner
	}
	return s
}

// addWorker makes w available on the shard the router picks and returns
// that shard. Callers must hold p.mu.
func (p *Platform) addWorker(w model.Worker) int {
	home := p.route(w.Loc)
	p.workers[w.ID] = worker{Worker: w, home: home}
	p.shards[home].workers++
	if p.inc != nil {
		p.pendingW = append(p.pendingW, w)
	}
	return home
}

// addTask opens t on the shard the router picks and returns that shard.
// Callers must hold p.mu.
func (p *Platform) addTask(t model.Task) int {
	home := p.route(t.Loc)
	p.tasks[t.ID] = task{Task: t, home: home}
	p.shards[home].tasks++
	if p.inc != nil {
		p.pendingT = append(p.pendingT, t)
	}
	return home
}

// dropTask removes an open task. Callers must hold p.mu.
func (p *Platform) dropTask(id int) {
	p.shards[p.tasks[id].home].tasks--
	delete(p.tasks, id)
}

// RegisterWorker adds an available worker and returns its ID.
func (p *Platform) RegisterWorker(loc geo.Point, speed, radius float64) (int, error) {
	if err := checkWorker(speed, radius); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextWorkerID
	p.nextWorkerID++
	p.history.Grow(p.nextWorkerID)
	home := p.addWorker(model.Worker{
		ID: id, Loc: loc, Speed: speed, Radius: radius, Arrive: p.clock(),
	})
	p.pm.registered.Inc()
	p.shards[home].m.registered.Inc()
	p.syncGauges()
	return id, nil
}

// PostTask adds an open task and returns its ID. Deadline is absolute
// platform time.
func (p *Platform) PostTask(loc geo.Point, capacity int, deadline float64) (int, error) {
	if err := p.checkTask(capacity); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if deadline <= p.clock() {
		return 0, fmt.Errorf("server: deadline %v not in the future (now %v)", deadline, p.clock())
	}
	id := p.nextTaskID
	p.nextTaskID++
	home := p.addTask(model.Task{
		ID: id, Loc: loc, Capacity: capacity, Created: p.clock(), Deadline: deadline,
	})
	p.pm.posted.Inc()
	p.shards[home].m.posted.Inc()
	p.syncGauges()
	return id, nil
}

// RateTask records the requester's rating s ∈ [0,1] for a dispatched task.
// Every worker pair of the group receives the rating per Equation 1, the
// group is forgotten, and its workers rejoin the pool at the task's
// location, re-homed by the router. A rating waits for a running round, so
// every solve reads one fixed history.
func (p *Platform) RateTask(taskID int, score float64) error {
	if !(score >= 0 && score <= 1) {
		return fmt.Errorf("server: rating %v outside [0,1]", score)
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	grp, ok := p.dispatched[taskID]
	if !ok {
		return fmt.Errorf("server: task %d awaits no rating (not dispatched, or already rated)", taskID)
	}
	delete(p.dispatched, taskID)
	ids := make([]int, len(grp.workers))
	for i, w := range grp.workers {
		ids[i] = w.ID
	}
	p.history.RecordGroup(ids, score)
	for _, w := range grp.workers {
		w.Loc, w.Arrive = grp.loc, p.clock()
		if home := p.addWorker(w.Worker); home != w.home {
			p.shards[home].m.handoffs.Inc()
		}
	}
	p.shards[grp.owner].busy -= len(grp.workers)
	p.busyCount -= len(grp.workers)
	p.pm.ratings.Inc()
	p.shards[grp.owner].m.ratings.Inc()
	p.syncGauges()
	return nil
}

// Quality returns the current Equation 1 estimate for two workers.
func (p *Platform) Quality(i, k int) (float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i == k || i < 0 || k < 0 || i >= p.nextWorkerID || k >= p.nextWorkerID {
		return 0, fmt.Errorf("server: bad worker pair (%d,%d)", i, k)
	}
	return p.history.Quality(i, k), nil
}

// Status is a platform snapshot, including every shard's slice.
type Status struct {
	Shards           int           `json:"shards"`
	Router           string        `json:"router"`
	AvailableWorkers int           `json:"available_workers"`
	BusyWorkers      int           `json:"busy_workers"`
	OpenTasks        int           `json:"open_tasks"`
	Batches          int           `json:"batches"`
	DispatchedTasks  int           `json:"dispatched_tasks"`
	TotalScore       float64       `json:"total_score"`
	Now              float64       `json:"now"`
	PerShard         []ShardStatus `json:"per_shard"`
}

// ShardStatus is one shard's slice of the platform status: the entities
// homed on it and the dispatched groups whose ratings it owns.
type ShardStatus struct {
	Shard            int     `json:"shard"`
	AvailableWorkers int     `json:"available_workers"`
	BusyWorkers      int     `json:"busy_workers"`
	OpenTasks        int     `json:"open_tasks"`
	DispatchedTasks  int     `json:"dispatched_tasks"`
	TotalScore       float64 `json:"total_score"`
}

// Status reports the platform snapshot. Reads take the shared lock, so
// status polls (and the other read-only endpoints) proceed concurrently
// with each other and never wait on a solve.
func (p *Platform) Status() Status {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Status{
		Shards:           len(p.shards),
		Router:           p.router.Name(),
		AvailableWorkers: len(p.workers),
		BusyWorkers:      p.busyCount,
		OpenTasks:        len(p.tasks),
		Batches:          p.batches,
		DispatchedTasks:  p.dispatchedTasks,
		TotalScore:       p.totalScore,
		Now:              p.clock(),
	}
	for s, sh := range p.shards {
		st.PerShard = append(st.PerShard, ShardStatus{
			Shard:            s,
			AvailableWorkers: sh.workers,
			BusyWorkers:      sh.busy,
			OpenTasks:        sh.tasks,
			DispatchedTasks:  sh.dispatched,
			TotalScore:       sh.score,
		})
	}
	return st
}

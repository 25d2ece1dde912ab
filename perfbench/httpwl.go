package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"casc/internal/server"
	"casc/internal/stats"
	"casc/internal/workload"
)

// httpParams sizes http-platform.
type httpParams struct {
	workers  int // registered in set-up
	tasks    int // posted every round
	turnover int // workers leaving and joining every round
	warm     int // leading rounds left out of the samples
	scored   int // timed rounds score_per_round and dispatch_rate cover
	script   int // rounds of generated requests, replayed cyclically
}

func httpSize(toy bool) httpParams {
	if toy {
		return httpParams{workers: 40, tasks: 10, turnover: 2, warm: 2, scored: 4, script: 8}
	}
	return httpParams{workers: 600, tasks: 150, turnover: 10, warm: 20, scored: 100, script: 256}
}

// httpSetupReps is how many times a run sets http-platform up; setup_s is
// the median.
const httpSetupReps = 3

// platformB is casc-server's default quorum; POST /batch with an empty body
// runs its default solver, GT+ALL.
const platformB = 3

// httpScript is the seeded request script. Bodies are encoded in set-up;
// a task body still needs its absolute deadline appended.
type httpScript struct {
	initial [][]byte   // POST /workers bodies registered in set-up
	joins   [][][]byte // per script round: POST /workers bodies
	leaves  [][]uint32 // per script round: which live worker leaves
	tasks   [][][]byte // per script round: POST /tasks bodies, open-ended
	ratings []float64  // scores handed out in turn
	horizon float64    // a task's deadline, in batches after posting
}

func newHTTPScript(p httpParams, seed int64) *httpScript {
	w := workload.Default()
	s := &httpScript{horizon: w.RemainingTime}
	workerBodies := func(n int, seed int64) [][]byte {
		w.NumWorkers = n
		var out [][]byte
		for _, wk := range w.WithSeed(seed).Workers(0) {
			out = append(out, []byte(fmt.Sprintf(`{"x":%v,"y":%v,"speed":%v,"radius":%v}`,
				wk.Loc.X, wk.Loc.Y, wk.Speed, wk.Radius)))
		}
		return out
	}
	base := seed << 20
	s.initial = workerBodies(p.workers, base)
	w.NumTasks = p.tasks
	rng := stats.NewRNG(base + 1)
	for r := 0; r < p.script; r++ {
		s.joins = append(s.joins, workerBodies(p.turnover, base+2+2*int64(r)))
		var tasks [][]byte
		for _, t := range w.WithSeed(base + 3 + 2*int64(r)).Tasks(0) {
			tasks = append(tasks, []byte(fmt.Sprintf(`{"x":%v,"y":%v,"capacity":%d,"deadline":`, t.Loc.X, t.Loc.Y, t.Capacity)))
		}
		s.tasks = append(s.tasks, tasks)
		leaves := make([]uint32, p.turnover)
		for i := range leaves {
			leaves[i] = uint32(rng.Int63())
		}
		s.leaves = append(s.leaves, leaves)
	}
	for i := 0; i < p.script*p.tasks; i++ {
		s.ratings = append(s.ratings, rng.Float64())
	}
	return s
}

// handlerClock is the traced run's middleware around Platform.Handler: it
// publishes each request's handler interval, and then bumps seq, so the
// client can pair it with the request it just completed.
type handlerClock struct {
	next       http.Handler
	start, end atomic.Int64 // UnixNano
	seq        atomic.Int64
}

func (c *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	c.next.ServeHTTP(w, r)
	c.start.Store(start.UnixNano())
	c.end.Store(time.Now().UnixNano())
	c.seq.Add(1)
}

// route names the request kinds the client sends.
type route int

const (
	routeWorkers route = iota // POST /workers and DELETE /workers/{id}
	routeTasks
	routeBatch
	routeRatings
	numRoutes
)

// httpEnv is one platform behind a loopback listener plus its one
// closed-loop client on a single keep-alive connection.
type httpEnv struct {
	p      httpParams
	script *httpScript
	srv    *http.Server
	served chan error
	hc     *http.Client
	base   string
	clock  *handlerClock // traced only
	conns  atomic.Int64  // connections the server accepted
	body   []byte
	resp   bytes.Buffer

	alive   []int            // registered worker IDs, in the client's order
	open    map[int]float64  // open task ID → deadline
	isAlive map[int]struct{} // same IDs as alive, for the checks
	batches int              // POST /batch calls made, the platform clock
	rated   int              // ratings handed out
	failed  func(string, ...any)
}

// call is one request the client completed.
type call struct {
	route        route
	start, end   time.Time
	hStart, hEnd time.Time // traced: the handler's interval
}

func (e *httpEnv) do(method, path string, body []byte, rt route, expect int, calls *[]call) ([]byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var seq int64
	if e.clock != nil {
		seq = e.clock.seq.Load()
	}
	start := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	e.resp.Reset()
	_, err = e.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c := call{route: rt, start: start, end: end}
	if e.clock != nil {
		// The handler publishes before the server finishes the response,
		// so this wait only guards against a reordered read.
		for e.clock.seq.Load() == seq {
			runtime.Gosched()
		}
		c.hStart = time.Unix(0, e.clock.start.Load())
		c.hEnd = time.Unix(0, e.clock.end.Load())
	}
	*calls = append(*calls, c)
	if resp.StatusCode != expect {
		e.failed("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, expect, bytes.TrimSpace(e.resp.Bytes()))
		return nil, nil
	}
	return e.resp.Bytes(), nil
}

// startHTTPEnv builds the platform with casc-server's defaults, serves its
// handler on a loopback port and registers the script's initial workers.
func startHTTPEnv(p httpParams, s *httpScript, traced bool, failed func(string, ...any)) (*httpEnv, error) {
	plat, err := server.NewPlatform(server.Config{B: platformB})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &httpEnv{p: p, script: s, served: make(chan error, 1),
		open: map[int]float64{}, isAlive: map[int]struct{}{}, failed: failed}
	var h http.Handler = plat.Handler()
	if traced {
		e.clock = &handlerClock{next: h}
		h = e.clock
	}
	e.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			e.conns.Add(1)
		}
	}}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	e.base = "http://" + ln.Addr().String()
	var calls []call
	for _, b := range s.initial {
		id, err := e.register(b, &calls)
		if err != nil {
			e.close()
			return nil, err
		}
		if id >= 0 {
			e.isAlive[id] = struct{}{}
		}
	}
	return e, nil
}

// register posts one worker and appends its ID to the live list.
func (e *httpEnv) register(body []byte, calls *[]call) (int, error) {
	resp, err := e.do("POST", "/workers", body, routeWorkers, http.StatusCreated, calls)
	if err != nil || resp == nil {
		return -1, err
	}
	var out struct{ ID int }
	if err := json.Unmarshal(resp, &out); err != nil {
		e.failed("POST /workers: %v", err)
		return -1, nil
	}
	e.alive = append(e.alive, out.ID)
	return out.ID, nil
}

func (e *httpEnv) close() {
	e.hc.CloseIdleConnections()
	e.srv.Close()
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		e.failed("serve: %v", err)
	}
}

// httpRound is what one closed-loop round did and measured.
type httpRound struct {
	calls      []call // every request; the untraced run drops them once summarized
	batch      server.BatchResponse
	left       []int         // workers deregistered
	joined     []int         // workers registered
	posted     []int         // tasks posted
	pool, open int           // live workers and open tasks at the batch
	cpu        time.Duration // process CPU time of the whole round
	batchCPU   time.Duration // process CPU time of POST /batch
	ops        int
}

// summarize fills the round's request count and appends the latency of
// every request but POST /batch, in ms, to reqMS.
func (r *httpRound) summarize(reqMS []float64) []float64 {
	r.ops = len(r.calls)
	for _, c := range r.calls {
		if c.route != routeBatch {
			reqMS = append(reqMS, ms(c.end.Sub(c.start)))
		}
	}
	return reqMS
}

// round runs one closed-loop round: workers leave and join, tasks are
// posted, POST /batch dispatches, and every dispatched task is rated,
// which returns its workers to the pool.
func (e *httpEnv) round() (*httpRound, error) {
	start := cpuTime()
	k := e.batches
	sr := k % e.p.script
	r := &httpRound{calls: make([]call, 0, 2*e.p.turnover+e.p.tasks+e.p.tasks)}
	for _, pick := range e.script.leaves[sr] {
		i := int(pick % uint32(len(e.alive)))
		id := e.alive[i]
		e.alive[i] = e.alive[len(e.alive)-1]
		e.alive = e.alive[:len(e.alive)-1]
		if _, err := e.do("DELETE", "/workers/"+strconv.Itoa(id), nil, routeWorkers, http.StatusOK, &r.calls); err != nil {
			return nil, err
		}
		r.left = append(r.left, id)
	}
	for _, b := range e.script.joins[sr] {
		id, err := e.register(b, &r.calls)
		if err != nil {
			return nil, err
		}
		if id >= 0 {
			r.joined = append(r.joined, id)
		}
	}
	deadline := float64(k) + e.script.horizon
	for _, prefix := range e.script.tasks[sr] {
		e.body = append(strconv.AppendFloat(append(e.body[:0], prefix...), deadline, 'g', -1, 64), '}')
		resp, err := e.do("POST", "/tasks", e.body, routeTasks, http.StatusCreated, &r.calls)
		if err != nil {
			return nil, err
		}
		if resp != nil {
			var out struct{ ID int }
			if err := json.Unmarshal(resp, &out); err != nil {
				e.failed("POST /tasks: %v", err)
				continue
			}
			r.posted = append(r.posted, out.ID)
		}
	}
	r.pool = len(e.alive)
	batchStart := cpuTime()
	resp, err := e.do("POST", "/batch", []byte(`{}`), routeBatch, http.StatusOK, &r.calls)
	r.batchCPU = cpuTime() - batchStart
	e.batches++
	if err != nil {
		return nil, err
	}
	if resp != nil {
		if err := json.Unmarshal(resp, &r.batch); err != nil {
			e.failed("POST /batch: %v", err)
		}
	}
	for i, pr := range r.batch.Pairs {
		if i > 0 && r.batch.Pairs[i-1].Task == pr.Task {
			continue
		}
		score := e.script.ratings[e.rated%len(e.script.ratings)]
		e.rated++
		e.body = append(strconv.AppendFloat(append(strconv.AppendInt(append(e.body[:0], `{"task_id":`...),
			int64(pr.Task), 10), `,"score":`...), score, 'g', -1, 64), '}')
		if _, err := e.do("POST", "/ratings", e.body, routeRatings, http.StatusOK, &r.calls); err != nil {
			return nil, err
		}
	}
	r.cpu = cpuTime() - start
	return r, nil
}

// check verifies a completed round against the client's own view of the
// platform: the pairs name live workers and open tasks, every dispatched
// task has at least B distinct workers, no worker serves twice, and the
// reported dispatch and expiry counts match. It then advances that view.
func (e *httpEnv) check(r *httpRound) {
	now := float64(e.batches - 1)
	for _, id := range r.left {
		delete(e.isAlive, id)
	}
	for _, id := range r.joined {
		e.isAlive[id] = struct{}{}
	}
	for _, id := range r.posted {
		e.open[id] = now + e.script.horizon
	}
	expired := 0
	for id, d := range e.open {
		if d <= now {
			expired++
			delete(e.open, id)
		}
	}
	r.open = len(e.open)
	b := r.batch
	if b.ExpiredTasks != expired {
		e.failed("batch %d: %d tasks expired, the client counts %d", e.batches-1, b.ExpiredTasks, expired)
	}
	workers := map[int]bool{}
	groups := 0
	for i := 0; i < len(b.Pairs); {
		j := i
		for j < len(b.Pairs) && b.Pairs[j].Task == b.Pairs[i].Task {
			w := b.Pairs[j].Worker
			if _, ok := e.isAlive[w]; !ok || workers[w] {
				e.failed("batch %d: worker %d is unknown or serves twice", e.batches-1, w)
			}
			workers[w] = true
			j++
		}
		if _, ok := e.open[b.Pairs[i].Task]; !ok {
			e.failed("batch %d: task %d is not open", e.batches-1, b.Pairs[i].Task)
		}
		if j-i < platformB {
			e.failed("batch %d: task %d dispatched with %d workers, B = %d", e.batches-1, b.Pairs[i].Task, j-i, platformB)
		}
		delete(e.open, b.Pairs[i].Task)
		groups++
		i = j
	}
	if groups != b.DispatchedTasks || math.IsNaN(b.Score) || (groups > 0) != (b.Score > 0) {
		e.failed("batch %d: %d groups in the pairs, reported %d dispatched scoring %v", e.batches-1, groups, b.DispatchedTasks, b.Score)
	}
}

// httpPhase is one closed-loop run on a fresh platform.
type httpPhase struct {
	rounds []*httpRound // every round, warm-up included
	reqMS  []float64    // latency of every timed request but POST /batch
	mem    []memPoint   // traced: runtime counters over each round's window
	heapMB float64      // untraced: live heap after the last scored round
}

// runHTTPPhase runs rounds on e until budget is spent and at least warm +
// scored rounds are done, or exactly n rounds when n > 0.
func runHTTPPhase(e *httpEnv, budget time.Duration, n int, r *report) (*httpPhase, error) {
	ph := &httpPhase{}
	traced := e.clock != nil
	runtime.GC()
	conns := e.conns.Load()
	deadline := time.Now().Add(budget)
	for k := 0; ; k++ {
		if n > 0 && k == n || n == 0 && k >= e.p.warm+e.p.scored && time.Now().After(deadline) {
			break
		}
		var before memPoint
		if traced {
			before = readMem()
		}
		rd, err := e.round()
		if err != nil {
			return nil, err
		}
		if traced {
			ph.mem = append(ph.mem, readMem().minus(before))
		}
		e.check(rd)
		if k >= e.p.warm {
			ph.reqMS = rd.summarize(ph.reqMS)
		} else {
			rd.summarize(nil)
		}
		r.attempted += rd.ops
		if !traced {
			rd.calls, rd.batch.Pairs = nil, nil
			if k+1 == e.p.warm+e.p.scored {
				// A fixed round, so the platform's state is the same on
				// every run of this seed.
				ph.heapMB = liveHeapMB()
			}
		}
		ph.rounds = append(ph.rounds, rd)
	}
	if c := e.conns.Load(); c != conns {
		r.fail("the client opened %d new connections, want one keep-alive connection throughout", c-conns)
	}
	return ph, nil
}

func runHTTPPlatform(ctx context.Context, o options, r *report) error {
	p := httpSize(o.toy)
	var (
		script *httpScript
		env    *httpEnv
		setup  = make([]float64, httpSetupReps)
	)
	for i := range setup {
		if env != nil {
			env.close()
		}
		start := cpuTime()
		script = newHTTPScript(p, o.seed)
		var err error
		if env, err = startHTTPEnv(p, script, false, r.fail); err != nil {
			return err
		}
		setup[i] = (cpuTime() - start).Seconds()
	}
	un, err := runHTTPPhase(env, o.seconds, 0, r)
	env.close()
	if err != nil {
		return err
	}
	timed := un.rounds[p.warm:]
	var (
		batchMS = make([]float64, 0, len(timed))
		cpu     time.Duration
		disp    int
		ops     int
	)
	for _, rd := range timed {
		batchMS = append(batchMS, ms(rd.batchCPU))
		cpu += rd.cpu
		disp += rd.batch.DispatchedTasks
		ops += rd.ops
	}
	p50 := median(batchMS)
	if !o.traced {
		var score float64
		var scoredDisp, scoredExp int
		for _, rd := range timed[:p.scored] {
			score += rd.batch.Score
			scoredDisp += rd.batch.DispatchedTasks
			scoredExp += rd.batch.ExpiredTasks
		}
		tv, pct := tail(batchMS)
		rv, rpct := tail(un.reqMS)
		r.set("setup_s", median(setup))
		r.set("round_ms_p50", p50)
		r.set("round_ms_tail", tv)
		r.set("dispatched_per_s", float64(disp)/cpu.Seconds())
		r.set("score_per_round", score/float64(p.scored))
		r.set("dispatch_rate", float64(scoredDisp)/float64(scoredDisp+scoredExp))
		r.set("live_heap_mb", un.heapMB)
		r.set("req_ms_p50", median(un.reqMS))
		r.set("req_ms_tail", rv)
		r.set("ops_per_s", float64(ops)/cpu.Seconds())
		r.note("rounds: %d timed (first %d left out); round tail is p%.2f of %d, request tail p%.3f of %d",
			len(timed), p.warm, pct, len(batchMS), rpct, len(un.reqMS))
		return nil
	}
	traced, err := startHTTPEnv(p, script, true, r.fail)
	if err != nil {
		return err
	}
	tr, err := runHTTPPhase(traced, 0, len(un.rounds), r)
	traced.close()
	if err != nil {
		return err
	}
	for i, rd := range un.rounds {
		if math.Float64bits(rd.batch.Score) != math.Float64bits(tr.rounds[i].batch.Score) {
			r.fail("batch %d: traced score %v differs from untraced %v", i, tr.rounds[i].batch.Score, rd.batch.Score)
		}
	}
	r.spans = newSpanLog()
	setHTTPLayers(r, tr, p.warm, p50)
	return nil
}

var routeNames = [numRoutes]string{"workers", "tasks", "batch", "ratings"}

// setHTTPLayers reports http-platform's traced phase: handler self time per
// request of each route, the transport's share of client latency, state
// sizes at the batch, and runtime counters per round.
func setHTTPLayers(r *report, tr *httpPhase, warm int, untracedP50 float64) {
	var (
		handler  [numRoutes]float64
		count    [numRoutes]float64
		trans    float64
		reqs     float64
		batchMS  []float64 // client latency
		batchCPU []float64
		pool     float64
		open     float64
		mem      memPoint
		timed    = tr.rounds[warm:]
	)
	for i, rd := range tr.rounds {
		root := r.spans.add("round", 0, i, rd.calls[0].start, rd.calls[len(rd.calls)-1].end)
		for _, c := range rd.calls {
			id := r.spans.add("http."+routeNames[c.route], root, i, c.start, c.end)
			r.spans.add("server."+routeNames[c.route], id, i, c.hStart, c.hEnd)
		}
	}
	for i, rd := range timed {
		for _, c := range rd.calls {
			h := ms(c.hEnd.Sub(c.hStart))
			handler[c.route] += h
			count[c.route]++
			trans += ms(c.end.Sub(c.start)) - h
			reqs++
			if c.route == routeBatch {
				batchMS = append(batchMS, ms(c.end.Sub(c.start)))
			}
		}
		batchCPU = append(batchCPU, ms(rd.batchCPU))
		pool += float64(rd.pool)
		open += float64(rd.open)
		m := tr.mem[warm+i]
		mem = memPoint{mem.alloc + m.alloc, mem.gcs + m.gcs, mem.pauseNs + m.pauseNs}
	}
	n := float64(len(timed))
	r.set("model.pool_workers", pool/n)
	r.set("model.open_tasks", open/n)
	for rt := route(0); rt < numRoutes; rt++ {
		r.set("server."+routeNames[rt]+"_ms", handler[rt]/max(count[rt], 1))
	}
	r.set("server.transport_ms", trans/reqs)
	r.set("runtime.alloc_mb_per_round", float64(mem.alloc)/1e6/n)
	r.set("runtime.gc_cycles_per_round", float64(mem.gcs)/n)
	r.set("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6/n)
	p50 := median(batchCPU)
	r.set("trace.round_wall_ms_mean", mean(batchMS))
	r.set("trace.round_ms_p50", p50)
	r.set("trace.overhead_ms", p50-untracedP50)
}

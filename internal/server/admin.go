package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
)

// This file adds the platform operations a production deployment needs
// beyond the core register/post/assign/rate loop: worker location updates
// and deregistration, task cancellation, and state snapshots (the rating
// history is the platform's most valuable asset; losing it resets every
// quality estimate to the prior).

// errNoRemovals refuses the admin mutations under Config.Incremental: the
// persistent engine has no path for an entity that leaves other than by
// dispatch or expiry.
var errNoRemovals = errors.New("server: worker updates, worker removals and task cancellations are not supported with incremental rounds")

// UpdateWorker moves an available worker to a new location and optionally
// changes its speed/radius (pass negative values to keep the current ones);
// the router re-homes it. Busy workers (dispatched, not yet rated) cannot
// be updated. Like every admin mutation, it waits for a running round.
func (p *Platform) UpdateWorker(id int, loc geo.Point, speed, radius float64) error {
	if p.inc != nil {
		return errNoRemovals
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("server: worker %d not available (unknown or busy)", id)
	}
	w.Loc = loc
	if speed >= 0 {
		w.Speed = speed
	}
	if radius >= 0 {
		w.Radius = radius
	}
	w.Arrive = p.clock()
	p.shards[w.home].workers--
	w.home = p.route(loc)
	p.shards[w.home].workers++
	p.workers[id] = w
	p.syncGauges()
	return nil
}

// UnregisterWorker removes an available worker from the pool. Busy workers
// cannot leave until their task is rated.
func (p *Platform) UnregisterWorker(id int) error {
	if p.inc != nil {
		return errNoRemovals
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("server: worker %d not available (unknown or busy)", id)
	}
	p.shards[w.home].workers--
	delete(p.workers, id)
	p.syncGauges()
	return nil
}

// CancelTask withdraws an open (not yet dispatched) task.
func (p *Platform) CancelTask(id int) error {
	if p.inc != nil {
		return errNoRemovals
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tasks[id]; !ok {
		return fmt.Errorf("server: task %d not open", id)
	}
	p.dropTask(id)
	p.syncGauges()
	return nil
}

// Snapshot is the serializable platform state. Dispatched-but-unrated
// groups are included so pending ratings survive a restart.
type Snapshot struct {
	B            int               `json:"b"`
	NextWorkerID int               `json:"next_worker_id"`
	NextTaskID   int               `json:"next_task_id"`
	Now          float64           `json:"now"`
	Workers      []SnapshotWorker  `json:"workers"`
	Tasks        []SnapshotTask    `json:"tasks"`
	History      []coop.PairRecord `json:"history"`
	Dispatched   []SnapshotGroup   `json:"dispatched"`
	TotalScore   float64           `json:"total_score"`
	Batches      int               `json:"batches"`
	DoneTasks    int               `json:"done_tasks"`
}

// SnapshotWorker is one available worker.
type SnapshotWorker struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Speed  float64 `json:"speed"`
	Radius float64 `json:"radius"`
	Arrive float64 `json:"arrive"`
}

// SnapshotTask is one open task.
type SnapshotTask struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Capacity int     `json:"capacity"`
	Created  float64 `json:"created"`
	Deadline float64 `json:"deadline"`
}

// SnapshotGroup is one dispatched, unrated task group.
type SnapshotGroup struct {
	TaskID  int              `json:"task_id"`
	X       float64          `json:"x"`
	Y       float64          `json:"y"`
	Workers []SnapshotWorker `json:"workers"`
}

// Snapshot captures the platform state.
func (p *Platform) Snapshot() *Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := &Snapshot{
		B:            p.b,
		NextWorkerID: p.nextWorkerID,
		NextTaskID:   p.nextTaskID,
		Now:          p.clock(),
		History:      p.history.Export(),
		TotalScore:   p.totalScore,
		Batches:      p.batches,
		DoneTasks:    p.dispatchedTasks,
		Workers:      p.listWorkers(),
		Tasks:        p.listTasks(),
	}
	for taskID, grp := range p.dispatched {
		sg := SnapshotGroup{TaskID: taskID, X: grp.loc.X, Y: grp.loc.Y}
		for _, w := range grp.workers {
			sg.Workers = append(sg.Workers, snapshotWorker(w.Worker))
		}
		s.Dispatched = append(s.Dispatched, sg)
	}
	sort.Slice(s.Dispatched, func(a, b int) bool { return s.Dispatched[a].TaskID < s.Dispatched[b].TaskID })
	return s
}

// Restore builds a platform from a snapshot. The restored platform uses
// the default batch-counter clock starting at the snapshot time unless
// cfg.Clock is provided. cfg.K may differ from the snapshotting
// platform's: the router re-homes every restored entity, and the per-shard
// dispatch counts and scores start from zero.
func Restore(s *Snapshot, cfg Config) (*Platform, error) {
	if s.B < 2 {
		return nil, fmt.Errorf("server: snapshot B = %d", s.B)
	}
	cfg.B = s.B
	p, err := NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		p.startClock(s.Now)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextWorkerID = s.NextWorkerID
	p.nextTaskID = s.NextTaskID
	p.totalScore = s.TotalScore
	p.batches = s.Batches
	p.dispatchedTasks = s.DoneTasks
	p.history.Grow(s.NextWorkerID)
	for _, r := range s.History {
		if r.I >= s.NextWorkerID || r.K >= s.NextWorkerID {
			return nil, fmt.Errorf("server: snapshot history pair (%d,%d) out of ID range", r.I, r.K)
		}
	}
	if err := p.history.Import(s.History); err != nil {
		return nil, err
	}
	// Every worker is either available or in exactly one dispatched group,
	// and every task is either open or dispatched: a worker listed twice
	// would later record self cooperation, and an ID at or past the next
	// one handed out would fall outside the history. Every entity passes
	// the same domain checks as one registered or posted through the API.
	seenW := make(map[int]bool)
	restoreWorker := func(w SnapshotWorker) (model.Worker, error) {
		if w.ID < 0 || w.ID >= s.NextWorkerID {
			return model.Worker{}, fmt.Errorf("server: snapshot worker %d out of ID range", w.ID)
		}
		if seenW[w.ID] {
			return model.Worker{}, fmt.Errorf("server: snapshot worker %d listed twice", w.ID)
		}
		seenW[w.ID] = true
		if err := checkWorker(w.Speed, w.Radius); err != nil {
			return model.Worker{}, fmt.Errorf("snapshot worker %d: %w", w.ID, err)
		}
		return model.Worker{
			ID: w.ID, Loc: geo.Pt(w.X, w.Y), Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
		}, nil
	}
	seenT := make(map[int]bool)
	claimTask := func(id int) error {
		if id < 0 || id >= s.NextTaskID {
			return fmt.Errorf("server: snapshot task %d out of ID range", id)
		}
		if seenT[id] {
			return fmt.Errorf("server: snapshot task %d listed twice", id)
		}
		seenT[id] = true
		return nil
	}
	for _, sw := range s.Workers {
		w, err := restoreWorker(sw)
		if err != nil {
			return nil, err
		}
		p.addWorker(w)
	}
	for _, t := range s.Tasks {
		if err := claimTask(t.ID); err != nil {
			return nil, err
		}
		if err := p.checkTask(t.Capacity); err != nil {
			return nil, fmt.Errorf("snapshot task %d: %w", t.ID, err)
		}
		p.addTask(model.Task{
			ID: t.ID, Loc: geo.Pt(t.X, t.Y), Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline,
		})
	}
	for _, g := range s.Dispatched {
		if err := claimTask(g.TaskID); err != nil {
			return nil, err
		}
		loc := geo.Pt(g.X, g.Y)
		grp := dispatchedGroup{loc: loc, owner: p.geom.ShardOf(loc)}
		for _, sw := range g.Workers {
			w, err := restoreWorker(sw)
			if err != nil {
				return nil, err
			}
			grp.workers = append(grp.workers, worker{Worker: w, home: p.geom.ShardOf(w.Loc)})
		}
		sort.Slice(grp.workers, func(a, b int) bool { return grp.workers[a].ID < grp.workers[b].ID })
		p.dispatched[g.TaskID] = grp
		p.shards[grp.owner].busy += len(grp.workers)
		p.busyCount += len(grp.workers)
	}
	p.syncGauges()
	return p, nil
}

// SaveSnapshot writes the snapshot as JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// SaveFile writes the snapshot to a file.
func (s *Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot from JSON.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	return &s, nil
}

// LoadSnapshotFile reads a snapshot from a file.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// ListWorkers returns the available workers sorted by ID.
func (p *Platform) ListWorkers() []SnapshotWorker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.listWorkers()
}

// ListTasks returns the open tasks sorted by ID.
func (p *Platform) ListTasks() []SnapshotTask {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.listTasks()
}

// listWorkers and listTasks serialize the registry sorted by ID. Callers
// must hold p.mu.
func (p *Platform) listWorkers() []SnapshotWorker {
	out := make([]SnapshotWorker, 0, len(p.workers))
	for _, w := range p.workers {
		out = append(out, snapshotWorker(w.Worker))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (p *Platform) listTasks() []SnapshotTask {
	out := make([]SnapshotTask, 0, len(p.tasks))
	for _, t := range p.tasks {
		out = append(out, SnapshotTask{
			ID: t.ID, X: t.Loc.X, Y: t.Loc.Y, Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func snapshotWorker(w model.Worker) SnapshotWorker {
	return SnapshotWorker{ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive}
}

// Admin HTTP endpoints (wired by Handler via registerAdmin):
//
//	GET    /workers                   → available workers
//	GET    /tasks                     → open tasks
//	PUT    /workers/{id}   {"x":..,"y":..,"speed":..,"radius":..}
//	DELETE /workers/{id}
//	DELETE /tasks/{id}
//	GET    /snapshot                  → full state JSON
//
// A mutation of an entity that is not available or open answers 404; any
// mutation under incremental rounds answers 409.
func (p *Platform) registerAdmin(mux *http.ServeMux) {
	handle(p.metrics, mux, "GET /workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"workers": p.ListWorkers()})
	})
	handle(p.metrics, mux, "GET /tasks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tasks": p.ListTasks()})
	})
	handle(p.metrics, mux, "PUT /workers/{id}", p.admitted(func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req WorkerRequest
		if !decode(w, r, &req) {
			return
		}
		adminReply(w, p.UpdateWorker(id, geo.Pt(req.X, req.Y), req.Speed, req.Radius))
	}))
	handle(p.metrics, mux, "DELETE /workers/{id}", p.admitted(func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		adminReply(w, p.UnregisterWorker(id))
	}))
	handle(p.metrics, mux, "DELETE /tasks/{id}", p.admitted(func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		adminReply(w, p.CancelTask(id))
	}))
	handle(p.metrics, mux, "GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Snapshot())
	})
}

// adminReply writes an admin mutation's outcome.
func adminReply(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errNoRemovals):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		writeErr(w, http.StatusNotFound, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{})
	}
}

func pathID(r *http.Request) (int, error) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		return 0, fmt.Errorf("bad id %q", r.PathValue("id"))
	}
	return id, nil
}

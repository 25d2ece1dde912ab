package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"casc/internal/geo"
	"casc/internal/server"
)

// Handler returns the cluster's HTTP API. It speaks the same wire protocol
// as the unsharded platform (request bodies are the server package's DTOs,
// so clients need no changes to point at a cluster) plus one extra route:
//
//	POST /workers   {"x":0.2,"y":0.3,"speed":0.05,"radius":0.1} → {"id":0}
//	POST /tasks     {"x":0.5,"y":0.5,"capacity":5,"deadline":3} → {"id":0}
//	POST /batch     {"solver":"GT"}                             → batch result
//	POST /ratings   {"task_id":0,"score":0.9}                   → {}
//	GET  /quality?i=0&k=1                                       → {"quality":0.5}
//	GET  /status                                                → cluster snapshot
//	GET  /shards                                                → per-shard snapshots
//	GET  /metrics                                               → Prometheus text
//
// When admission control is configured, every mutating POST passes through
// the token bucket first and shed requests get 503 with a Retry-After
// header — the same contract budget exhaustion uses, so clients implement
// one backoff path for both.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	server.Route(c.metrics, mux, "POST /workers", c.admitted(c.handleRegisterWorker))
	server.Route(c.metrics, mux, "POST /tasks", c.admitted(c.handlePostTask))
	server.Route(c.metrics, mux, "POST /batch", c.admitted(c.handleBatch))
	server.Route(c.metrics, mux, "POST /ratings", c.admitted(c.handleRate))
	server.Route(c.metrics, mux, "GET /quality", c.handleQuality)
	server.Route(c.metrics, mux, "GET /status", c.handleStatus)
	server.Route(c.metrics, mux, "GET /shards", c.handleShards)
	server.Route(c.metrics, mux, "GET /metrics", c.metrics.Handler().ServeHTTP)
	if c.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// admitted wraps a mutating handler with token-bucket admission control.
func (c *Cluster) admitted(h http.HandlerFunc) http.HandlerFunc {
	if c.admission == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if err := c.admission.Admit(); err != nil {
			var shed *ErrAdmission
			if errors.As(err, &shed) {
				w.Header().Set("Retry-After", server.RetryAfter(shed.RetryAfter))
			}
			server.WriteErr(w, http.StatusServiceUnavailable, err)
			return
		}
		h(w, r)
	}
}

func (c *Cluster) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req server.WorkerRequest
	if !server.Decode(w, r, &req) {
		return
	}
	id, err := c.RegisterWorker(geo.Pt(req.X, req.Y), req.Speed, req.Radius)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusCreated, map[string]int{"id": id})
}

func (c *Cluster) handlePostTask(w http.ResponseWriter, r *http.Request) {
	var req server.TaskRequest
	if !server.Decode(w, r, &req) {
		return
	}
	id, err := c.PostTask(geo.Pt(req.X, req.Y), req.Capacity, req.Deadline)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusCreated, map[string]int{"id": id})
}

// BatchResponse is the cluster's POST /batch reply: the platform's reply
// shape plus the round's sharding observability.
type BatchResponse struct {
	server.BatchResponse
	Components       int `json:"components"`
	BorderComponents int `json:"border_components"`
	GhostWorkers     int `json:"ghost_workers"`
}

func (c *Cluster) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if !server.Decode(w, r, &req) {
		return
	}
	if req.Solver == "" {
		req.Solver = "GT+ALL"
	}
	ctx := r.Context()
	if c.solveBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.solveBudget)
		defer cancel()
	}
	res, err := c.RunBatch(ctx, req.Solver)
	if errors.Is(err, ErrBudgetExhausted) {
		w.Header().Set("Retry-After", server.RetryAfter(c.solveBudget))
		server.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	resp := BatchResponse{
		BatchResponse: server.BatchResponse{
			Score:           res.Score,
			Upper:           res.Upper,
			DispatchedTasks: res.DispatchedTasks,
			ExpiredTasks:    res.ExpiredTasks,
			Pairs:           []server.PairJSON{},
		},
		Components:       res.Components,
		BorderComponents: res.BorderComponents,
		GhostWorkers:     res.GhostWorkers,
	}
	for _, pr := range res.Pairs {
		resp.Pairs = append(resp.Pairs, server.PairJSON{Worker: pr.Worker, Task: pr.Task})
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleRate(w http.ResponseWriter, r *http.Request) {
	var req server.RatingRequest
	if !server.Decode(w, r, &req) {
		return
	}
	if err := c.RateTask(req.TaskID, req.Score); err != nil {
		server.WriteErr(w, http.StatusConflict, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{})
}

func (c *Cluster) handleQuality(w http.ResponseWriter, r *http.Request) {
	i, err1 := strconv.Atoi(r.URL.Query().Get("i"))
	k, err2 := strconv.Atoi(r.URL.Query().Get("k"))
	if err1 != nil || err2 != nil {
		server.WriteErr(w, http.StatusBadRequest, fmt.Errorf("quality needs integer i and k params"))
		return
	}
	q, err := c.Quality(i, k)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]float64{"quality": q})
}

func (c *Cluster) handleStatus(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Status())
}

func (c *Cluster) handleShards(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Status().PerShard)
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/config"
	"fuse/internal/dram"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/store"
	"fuse/internal/trace"
)

// server is the HTTP front door over the engine Runner and the result store:
// batches execute concurrently on the shared worker pool, results persist in
// the content-addressed store, and the figure endpoints serve the experiment
// layer's tables. Handlers run concurrently (one goroutine per request,
// net/http's model); the Runner deduplicates identical simulations across
// requests that race.
//
// Known limitation: the Runner's dedup map and the memory cache tier retain
// every distinct result for the lifetime of the process, so a deployment
// facing untrusted clients (who can mint unlimited distinct keys through the
// batch options) needs an authentication or quota layer in front; the disk
// tier is the component designed to hold an unbounded result set.
type server struct {
	matrix  *experiments.Matrix
	runner  *engine.Runner
	results store.Cache
	timeout time.Duration
	// backend is the server-wide default memory backend ("" = each GPU
	// model's own); batch requests may override it per batch.
	backend string
	// maxInflight bounds the simulation-bearing requests (batches and
	// figures) admitted at once; excess requests get 503 + Retry-After
	// instead of queueing without bound. 0 = unlimited.
	maxInflight int
	// health reports cache-tier health on /healthz (nil = no tiers wired).
	health *store.Tiered
	// coord, when non-nil, is the fleet coordinator this server fronts
	// (-coordinator mode): its protocol is mounted under /cluster/v1/ and
	// its stats appear on /healthz.
	coord *cluster.Coordinator

	mux      *http.ServeMux
	inflight atomic.Int64 // admitted simulation-bearing requests
	draining atomic.Bool  // set once shutdown begins; new work is refused
	panics   atomic.Int64 // handler panics converted to 500s
}

// serverConfig wires a server: the experiment scale, the shared Runner, the
// cache consulted by GET /v1/result (usually the same tiered cache the
// Runner writes through, also passed as health for /healthz), and the
// serving limits.
type serverConfig struct {
	scale       experiments.Scale
	runner      *engine.Runner
	results     store.Cache
	health      *store.Tiered
	timeout     time.Duration
	backend     string
	maxInflight int
	// coord runs the server in coordinator mode (nil = single process).
	coord *cluster.Coordinator
}

// newServer wires the API routes behind the panic-recovery middleware.
func newServer(cfg serverConfig) *server {
	matrix := experiments.NewMatrixRunner(cfg.scale, cfg.runner)
	matrix.SetBackend(cfg.backend)
	s := &server{
		matrix:      matrix,
		runner:      cfg.runner,
		results:     cfg.results,
		timeout:     cfg.timeout,
		backend:     cfg.backend,
		maxInflight: cfg.maxInflight,
		health:      cfg.health,
		coord:       cfg.coord,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/figures/{fig}", s.handleFigure)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.coord != nil {
		// The cluster protocol (register/pull/heartbeat/result) rides on the
		// same listener as the API, so a fleet needs exactly one address.
		mux.Handle("/cluster/v1/", s.coord.Handler())
	}
	s.mux = mux
	return s
}

// ServeHTTP dispatches through the panic-recovery middleware: a panic that
// escapes a handler (the engine already contains simulation panics) becomes
// a structured 500 instead of a torn connection, and is counted.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			cluster.HTTPError(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// beginDrain flips the server into draining mode: health turns not-ready and
// new simulation-bearing requests are refused, while admitted ones run to
// completion under http.Server.Shutdown.
func (s *server) beginDrain() { s.draining.Store(true) }

// admit gates a simulation-bearing request: draining and over-capacity
// requests are refused with 503 + Retry-After so clients back off instead of
// queueing. The caller must defer release() when admitted.
func (s *server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		cluster.HTTPError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	if n := s.inflight.Add(1); s.maxInflight > 0 && n > int64(s.maxInflight) {
		s.inflight.Add(-1)
		w.Header().Set("Retry-After", "1")
		cluster.HTTPError(w, http.StatusServiceUnavailable,
			"at capacity (%d simulation requests in flight)", s.maxInflight)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// healthResponse is the body of GET /healthz and GET /readyz.
type healthResponse struct {
	// Status is "ok", "degraded" (a store tier tripped its degraded flag)
	// or "draining" (shutdown in progress).
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	InFlight int64  `json:"inFlight"`
	// Runner counters (process-lifetime totals).
	Completed int `json:"completed"`
	Executed  int `json:"executed"`
	StoreHits int `json:"storeHits"`
	Panics    int `json:"panics"`
	// HandlerPanics counts panics the HTTP middleware converted to 500s.
	HandlerPanics int64 `json:"handlerPanics"`
	// Store is the per-tier health of the result cache, fastest first.
	Store []store.Health `json:"store,omitempty"`
	// Cluster is the fleet snapshot in coordinator mode: registered
	// workers, queued/in-flight jobs, and dispatch, re-dispatch, completion
	// and local-fallback counts.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// snapshotHealth assembles the shared health body.
func (s *server) snapshotHealth() healthResponse {
	h := healthResponse{
		Status:        "ok",
		Draining:      s.draining.Load(),
		InFlight:      s.inflight.Load(),
		Completed:     s.runner.Completed(),
		Executed:      s.runner.Executed(),
		StoreHits:     s.runner.StoreHits(),
		Panics:        s.runner.Panics(),
		HandlerPanics: s.panics.Load(),
	}
	if s.health != nil {
		h.Store = s.health.Health()
		if s.health.Degraded() {
			h.Status = "degraded"
		}
	}
	if s.coord != nil {
		st := s.coord.Stats()
		h.Cluster = &st
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// handleHealthz reports liveness: always 200 while the process serves, with
// the degraded/draining detail in the body for operators and dashboards.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotHealth())
}

// handleReadyz reports readiness for load balancers: 503 while draining or
// while the store is degraded, 200 otherwise, same body as /healthz.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.snapshotHealth()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// workloadInfo is one entry of the GET /v1/workloads listing.
type workloadInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "profile" or "phased"
	Builtin bool   `json:"builtin"`
	Suite   string `json:"suite,omitempty"`
	// APKI is only meaningful for profile workloads.
	APKI        float64 `json:"apki,omitempty"`
	Description string  `json:"description,omitempty"`
	// Phases lists the phase profiles of a phased workload.
	Phases []string `json:"phases,omitempty"`
}

// handleWorkloads lists the workload registry: the 21 builtin benchmarks plus
// everything registered since (workload files, inline batch definitions).
func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadInfo
	for _, name := range trace.WorkloadNames() {
		wl, ok := trace.Lookup(name)
		if !ok {
			continue // unregistered between listing and lookup: impossible today
		}
		info := workloadInfo{Name: name, Builtin: trace.IsBuiltin(name)}
		switch wl := wl.(type) {
		case *trace.SyntheticWorkload:
			info.Kind = "profile"
			info.Suite = wl.Profile.Suite
			info.APKI = wl.Profile.APKI
			info.Description = wl.Profile.Description
		case *trace.PhasedWorkload:
			info.Kind = "phased"
			info.Description = wl.Description
			for _, ph := range wl.Phases {
				info.Phases = append(info.Phases, ph.Profile.Name)
			}
		default:
			info.Kind = "other"
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

// requestContext bounds one request by the server's per-request timeout.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// batchJob is one simulation point of a batch request.
type batchJob struct {
	// Kind is the L1D configuration name (config.ParseL1DKind).
	Kind string `json:"kind"`
	// Workload is the workload name, resolved through the trace registry:
	// a builtin benchmark, a workload the server loaded at startup, or one
	// defined inline in this request's "workloads" block.
	Workload string `json:"workload"`
}

// batchOptions overrides the server scale's simulation options per batch.
type batchOptions struct {
	InstructionsPerWarp uint64 `json:"instructionsPerWarp,omitempty"`
	SMs                 int    `json:"sms,omitempty"`
	Seed                uint64 `json:"seed,omitempty"`
	// Backend overrides the memory backend (see dram.Backends) for every
	// job of the batch; empty inherits the server's -backend default.
	Backend string `json:"backend,omitempty"`
}

// batchRequest is the body of POST /v1/batch. Workloads, when present, is an
// inline workload definition block (the workload-file schema: custom
// profiles and phased composites); its entries are registered before the
// jobs resolve, so a batch can define a workload and run it in one request.
// Re-posting an identical definition is a no-op; redefining an existing name
// with different parameters is a 400.
type batchRequest struct {
	Jobs      []batchJob          `json:"jobs"`
	Options   *batchOptions       `json:"options,omitempty"`
	Workloads *trace.WorkloadFile `json:"workloads,omitempty"`
}

// batchResult is one per-job entry of a batch response, in submission order.
type batchResult struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	// Key is the content-addressed store key; the result stays fetchable at
	// GET /v1/result/{key} after the batch returns.
	Key    string      `json:"key,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// batchResponse is the body of a POST /v1/batch response.
type batchResponse struct {
	Results []batchResult `json:"results"`
	// Executed, StoreHits and Panics snapshot the Runner counters
	// after the batch (process-lifetime totals, not per-batch deltas).
	Executed  int `json:"executed"`
	StoreHits int `json:"storeHits"`
	Panics    int `json:"panics"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	var req batchRequest
	if !cluster.DecodeRequest(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		cluster.HTTPError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if req.Workloads != nil {
		if _, err := req.Workloads.Register(); err != nil {
			cluster.HTTPError(w, http.StatusBadRequest, "workloads: %v", err)
			return
		}
	}

	opts := s.matrix.Scale().Options()
	backend := s.backend
	if o := req.Options; o != nil {
		if o.InstructionsPerWarp > 0 {
			opts.InstructionsPerWarp = o.InstructionsPerWarp
		}
		if o.SMs > 0 {
			opts.SMOverride = o.SMs
		}
		if o.Seed > 0 {
			opts.Seed = o.Seed
		}
		if o.Backend != "" {
			if _, err := dram.BackendByName(o.Backend); err != nil {
				cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
				return
			}
			backend = o.Backend
		}
	}

	jobs := make([]engine.Job, 0, len(req.Jobs))
	for i, j := range req.Jobs {
		kind, err := config.ParseL1DKind(j.Kind)
		if err != nil {
			cluster.HTTPError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		if _, err := trace.LookupWorkload(j.Workload); err != nil {
			cluster.HTTPError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		job := engine.Job{Kind: kind, Workload: j.Workload, Opts: opts}
		if backend != "" {
			job = engine.BackendJob(kind, j.Workload, backend, opts)
		}
		jobs = append(jobs, job)
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	outcomes, err := s.runner.RunBatch(ctx, jobs)
	// Classify timeouts by the request context itself, not by whichever job
	// happened to fail first inside the batch error: an expired deadline is
	// always a 504, regardless of submission order. Other per-job failures
	// are reported in the body, not as a transport error: the rest of the
	// batch is still useful.
	if err != nil && ctx.Err() != nil {
		cluster.HTTPError(w, http.StatusGatewayTimeout, "batch timed out: %v", ctx.Err())
		return
	}

	resp := batchResponse{
		Results:   make([]batchResult, len(jobs)),
		Executed:  s.runner.Executed(),
		StoreHits: s.runner.StoreHits(),
		Panics:    s.runner.Panics(),
	}
	for i, o := range outcomes {
		entry := batchResult{Kind: req.Jobs[i].Kind, Workload: req.Jobs[i].Workload}
		if o.Err != nil {
			entry.Error = o.Err.Error()
		} else {
			entry.Result, entry.Key = &o.Result, o.Key
		}
		resp.Results[i] = entry
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		cluster.HTTPError(w, http.StatusBadRequest, "malformed key %q (want 64 hex digits)", key)
		return
	}
	res, ok := s.results.Get(key)
	if !ok {
		cluster.HTTPError(w, http.StatusNotFound, "no result for key %s", key)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// figureExperiments maps the servable figure numbers onto experiment names.
// Figures 13-17 are the evaluation matrix the store is built to serve; they
// share one six-kind job set, so any of them warms the others. "backends" is
// the repository's memory-technology sweep.
var figureExperiments = map[string]string{
	"13":       experiments.ExpFig13,
	"14":       experiments.ExpFig14,
	"15":       experiments.ExpFig15,
	"16":       experiments.ExpFig16,
	"17":       experiments.ExpFig17,
	"backends": experiments.ExpBackends,
}

func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	fig := r.PathValue("fig")
	name, ok := figureExperiments[fig]
	if !ok {
		cluster.HTTPError(w, http.StatusNotFound, "figure %q not servable (want 13..17 or backends)", fig)
		return
	}
	var workloads []string // nil = the experiment's full set
	if wl := r.URL.Query().Get("workloads"); wl != "" {
		for _, workload := range strings.Split(wl, ",") {
			workload = strings.TrimSpace(workload)
			if workload == "" {
				continue
			}
			if _, err := trace.LookupWorkload(workload); err != nil {
				cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
				return
			}
			workloads = append(workloads, workload)
		}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	table, err := experiments.RunContext(ctx, s.matrix, name, workloads)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			cluster.HTTPError(w, http.StatusGatewayTimeout, "figure %s timed out: %v", fig, err)
		} else {
			cluster.HTTPError(w, http.StatusInternalServerError, "figure %s: %v", fig, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, table.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

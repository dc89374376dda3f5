package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"fuse/internal/engine"
	"fuse/internal/sim"
)

// Config configures a Coordinator. The zero value is valid: default
// intervals, no local fallback.
type Config struct {
	// Lease is how long a dispatched task may go without a heartbeat or a
	// result before it is re-dispatched. Zero means DefaultLease.
	Lease time.Duration
	// PollTimeout is how long a pull long-polls for a task before answering
	// 204. Zero means DefaultPollTimeout.
	PollTimeout time.Duration
	// Liveness is how long a worker may go without any contact (pull,
	// heartbeat, result) before it is declared lost and its jobs are
	// re-dispatched. Zero means 2×Lease.
	Liveness time.Duration
	// LocalExec, when non-nil, executes jobs in-process while no worker is
	// registered, so a lone coordinator still serves traffic: jobs submitted
	// to an empty fleet, and every queued or leased job when the last worker
	// is lost. New wraps it in engine.ContainPanics, so a panicking job fails
	// its task instead of the process. When nil, submissions wait
	// (context-cancellably) in the queue for a worker to arrive.
	LocalExec engine.ExecFunc
}

// withDefaults resolves the zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = DefaultPollTimeout
	}
	if cfg.Liveness <= 0 {
		cfg.Liveness = 2 * cfg.Lease
	}
	// An idle worker parks inside a long poll for a full PollTimeout between
	// liveness resets; the horizon must clear that park (plus a round trip)
	// or idle workers flap between lost and re-registered.
	if floor := 2 * cfg.PollTimeout; cfg.Liveness < floor {
		cfg.Liveness = floor
	}
	return cfg
}

// ErrClosed is returned by Execute when the coordinator has been closed.
var ErrClosed = errors.New("cluster: coordinator closed")

// taskState is the lifecycle of a dispatched job.
type taskState int

const (
	taskQueued   taskState = iota // in the coordinator's queue
	taskInflight                  // pulled by a worker, lease armed
	taskDone                      // outcome delivered (or abandoned)
)

// taskOutcome is a completed task's result or error.
type taskOutcome struct {
	res sim.Result
	err error
}

// task is one submitted job and its dispatch state. The guarded fields are
// protected by the coordinator's mutex.
type task struct {
	id   uint64
	job  engine.Job
	done chan taskOutcome // buffered 1; receives exactly one outcome
	// submittedCtx is the submitting request's context (set once at submit,
	// read-only after); the local fallback executes under it so cancelling
	// the batch cancels the simulation.
	submittedCtx context.Context

	state    taskState
	owner    string // worker currently holding the lease ("" if queued)
	attempts int    // dispatch attempts so far
	seq      uint64 // bumped per dispatch/renewal; guards stale lease expiry
	lease    *time.Timer
}

// workerState is one registered worker.
type workerState struct {
	id         string
	generation uint64 // bumped per (re)register; guards stale liveness timers
	inflight   map[uint64]*task
	liveness   *time.Timer
}

// Coordinator accepts jobs into one FIFO queue, hands them to whichever
// registered worker pulls next, and re-dispatches on worker loss or lease
// expiry. It is an engine executor: plug Execute into engine.Config.Exec and
// the Runner's dedup and store write-through machinery front a whole fleet
// instead of a local simulator.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	closed  bool
	workers map[string]*workerState
	tasks   map[uint64]*task
	queue   []*task         // FIFO; entries retired while queued are skipped on pop
	waiters []chan struct{} // parked pulls awaiting work, each buffered 1
	nextID  uint64

	// Counters (guarded by mu), snapshotted by Stats.
	dispatched   int64
	redispatched int64
	completed    int64
	failed       int64
	localRuns    int64
	workersEver  int64
	workersLost  int64
}

// New creates a Coordinator.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	if cfg.LocalExec != nil {
		cfg.LocalExec = engine.ContainPanics(cfg.LocalExec)
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		tasks:   make(map[uint64]*task),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathRegister, c.handleRegister)
	mux.HandleFunc("POST "+pathPull, c.handlePull)
	mux.HandleFunc("POST "+pathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+pathResult, c.handleResult)
	mux.HandleFunc("POST "+pathLeave, c.handleLeave)
	c.mux = mux
	return c
}

// Handler returns the coordinator's HTTP handler (the /cluster/v1/* routes).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Stats is a point-in-time snapshot of the fleet, surfaced by fuseserve's
// /healthz in coordinator mode.
type Stats struct {
	// Workers is the number of currently registered (live) workers.
	Workers int `json:"workers"`
	// WorkersEver and WorkersLost count registrations and liveness losses
	// (a worker that leaves is not lost).
	WorkersEver int64 `json:"workersEver"`
	WorkersLost int64 `json:"workersLost"`
	// Queued and InFlight are the jobs currently waiting and leased.
	Queued   int `json:"queued"`
	InFlight int `json:"inFlight"`
	// Dispatched counts task handoffs to workers; Redispatched counts the
	// subset re-dispatched after a lease expiry or worker loss.
	Dispatched   int64 `json:"dispatched"`
	Redispatched int64 `json:"redispatched"`
	// Completed and Failed count delivered outcomes; LocalRuns counts jobs
	// executed by the local fallback because no worker was registered.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	LocalRuns int64 `json:"localRuns"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Workers:      len(c.workers),
		WorkersEver:  c.workersEver,
		WorkersLost:  c.workersLost,
		Dispatched:   c.dispatched,
		Redispatched: c.redispatched,
		Completed:    c.completed,
		Failed:       c.failed,
		LocalRuns:    c.localRuns,
	}
	queued, inflight := 0, 0
	// An order-insensitive count of task states.
	for _, t := range c.tasks {
		switch t.state {
		case taskQueued:
			queued++
		case taskInflight:
			inflight++
		}
	}
	s.Queued, s.InFlight = queued, inflight
	return s
}

// action is deferred work a locked section hands back to its caller: channel
// sends and goroutine spawns happen strictly after the mutex is released.
type action struct {
	wake    chan struct{} // signal one parked pull
	deliver *task         // send out on deliver.done
	out     taskOutcome
	local   *task // execute via the LocalExec fallback
}

// perform runs deferred actions. Sends never block: wake channels and done
// channels are buffered size 1 and signalled at most once.
func (c *Coordinator) perform(acts []action) {
	for _, a := range acts {
		if a.wake != nil {
			a.wake <- struct{}{}
		}
		if a.deliver != nil {
			a.deliver.done <- a.out
		}
		if a.local != nil {
			go c.runLocal(a.local)
		}
	}
}

// runLocal executes a task through the LocalExec fallback and completes it.
func (c *Coordinator) runLocal(t *task) {
	res, err := c.cfg.LocalExec(t.submittedCtx, t.job)
	c.mu.Lock()
	acts := c.completeLocked(t, taskOutcome{res: res, err: err})
	c.mu.Unlock()
	c.perform(acts)
}

// Execute runs one job on the fleet: queued for the next worker that pulls,
// or executed by the LocalExec fallback when no worker is registered. It
// blocks until the job completes, fails its attempt budget, or ctx is
// cancelled. It is an engine.ExecFunc.
//
//fuselint:blocking waits for a worker (or the local fallback) to finish the job
func (c *Coordinator) Execute(ctx context.Context, job engine.Job) (sim.Result, error) {
	t, local, err := c.submit(ctx, job)
	if err != nil {
		return sim.Result{}, err
	}
	if local {
		return c.cfg.LocalExec(ctx, job)
	}
	select {
	case out := <-t.done:
		return out.res, out.err
	case <-ctx.Done():
		c.abandon(t)
		return sim.Result{}, ctx.Err()
	}
}

// submit registers a new task. It reports local=true when the caller should
// run the job itself via LocalExec (no worker registered).
func (c *Coordinator) submit(ctx context.Context, job engine.Job) (t *task, local bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if len(c.workers) == 0 && c.cfg.LocalExec != nil {
		c.localRuns++
		c.mu.Unlock()
		return nil, true, nil
	}
	c.nextID++
	t = &task{
		id:           c.nextID,
		job:          job,
		done:         make(chan taskOutcome, 1),
		submittedCtx: ctx,
	}
	c.tasks[t.id] = t
	acts := c.enqueueLocked(t)
	c.mu.Unlock()
	c.perform(acts)
	return t, false, nil
}

// abandon retires a task whose submitter gave up (context cancelled). A
// worker may still be executing it; its eventual result is ignored.
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.state == taskDone {
		return
	}
	t.state = taskDone
	stopLease(t)
	delete(c.tasks, t.id)
}

// stopLease stops and clears a task's lease timer (mu held).
func stopLease(t *task) {
	if t.lease != nil {
		t.lease.Stop()
		t.lease = nil
	}
}

// enqueueLocked appends a task to the queue and wakes one parked pull, if
// any (mu held).
func (c *Coordinator) enqueueLocked(t *task) []action {
	t.state = taskQueued
	t.owner = ""
	c.queue = append(c.queue, t)
	if len(c.waiters) == 0 {
		return nil
	}
	wake := c.waiters[0]
	c.waiters = c.waiters[1:]
	return []action{{wake: wake}}
}

// completeLocked delivers a task's outcome exactly once (mu held).
func (c *Coordinator) completeLocked(t *task, out taskOutcome) []action {
	if t.state == taskDone {
		return nil
	}
	if w := c.workers[t.owner]; w != nil {
		delete(w.inflight, t.id)
	}
	t.state = taskDone
	stopLease(t)
	delete(c.tasks, t.id)
	if out.err != nil {
		c.failed++
	} else {
		c.completed++
	}
	return []action{{deliver: t, out: out}}
}

// requeueLocked puts a task back in play after a lease expiry or worker
// loss: back on the queue, to the local fallback when the fleet is empty, or
// failed outright once its dispatch attempts are spent (mu held).
func (c *Coordinator) requeueLocked(t *task) []action {
	if t.state == taskDone {
		return nil
	}
	if t.attempts >= maxAttempts {
		err := fmt.Errorf("cluster: job %s (task %d) failed after %d dispatch attempts", t.job, t.id, t.attempts)
		return c.completeLocked(t, taskOutcome{err: err})
	}
	if len(c.workers) == 0 && c.cfg.LocalExec != nil {
		return c.runLocalLocked(t)
	}
	return c.enqueueLocked(t)
}

// runLocalLocked hands a task to the LocalExec fallback (mu held).
func (c *Coordinator) runLocalLocked(t *task) []action {
	c.localRuns++
	t.state = taskInflight
	t.owner = ""
	return []action{{local: t}}
}

// dispatchLocked hands a queued task to a worker: leased, counted, and
// guarded against stale expiry by the dispatch sequence number (mu held).
func (c *Coordinator) dispatchLocked(t *task, w *workerState) {
	t.state = taskInflight
	t.owner = w.id
	t.attempts++
	w.inflight[t.id] = t
	c.renewLeaseLocked(t)
	c.dispatched++
}

// expireLease re-dispatches a task whose lease ran out without a heartbeat
// or a result. The sequence number ignores stale timers from earlier
// dispatches of the same task.
func (c *Coordinator) expireLease(id, seq uint64) {
	c.mu.Lock()
	t := c.tasks[id]
	if t == nil || t.state != taskInflight || t.seq != seq {
		c.mu.Unlock()
		return
	}
	if w := c.workers[t.owner]; w != nil {
		delete(w.inflight, t.id)
	}
	c.redispatched++
	acts := c.requeueLocked(t)
	c.mu.Unlock()
	c.perform(acts)
}

// renewLeaseLocked (re)starts a task's lease under a fresh sequence number,
// so an already-fired (but not yet run) expiry of an earlier lease is
// ignored (mu held).
func (c *Coordinator) renewLeaseLocked(t *task) {
	t.seq++
	seq := t.seq
	id := t.id
	stopLease(t)
	t.lease = time.AfterFunc(c.cfg.Lease, func() { c.expireLease(id, seq) })
}

// resetLivenessLocked pushes the worker's liveness horizon out (mu held).
func (c *Coordinator) resetLivenessLocked(w *workerState) {
	if w.liveness != nil {
		w.liveness.Stop()
	}
	gen := w.generation
	w.liveness = time.AfterFunc(c.cfg.Liveness, func() { c.workerLost(w, gen) })
}

// workerLost removes a worker that missed its liveness window (see
// removeWorkerLocked). A timer of a worker that has since left, or
// re-registered, finds a different state or generation and does nothing.
func (c *Coordinator) workerLost(w *workerState, gen uint64) {
	c.mu.Lock()
	if c.workers[w.id] != w || w.generation != gen {
		c.mu.Unlock()
		return
	}
	c.workersLost++
	acts := c.removeWorkerLocked(w)
	c.mu.Unlock()
	c.perform(acts)
}

// removeWorkerLocked drops a lost or leaving worker and puts every job it
// held back in play. When it was the last worker and a LocalExec fallback
// exists, the jobs still queued go to the fallback too: no worker is left to
// pull them (mu held).
func (c *Coordinator) removeWorkerLocked(w *workerState) []action {
	if w.liveness != nil {
		w.liveness.Stop()
	}
	delete(c.workers, w.id)
	var acts []action
	if len(c.workers) == 0 && c.cfg.LocalExec != nil {
		for t := c.popQueueLocked(); t != nil; t = c.popQueueLocked() {
			acts = append(acts, c.runLocalLocked(t)...)
		}
	}
	for _, tid := range slices.Sorted(maps.Keys(w.inflight)) {
		t := w.inflight[tid]
		if t.state != taskInflight || t.owner != w.id {
			continue
		}
		c.redispatched++
		acts = append(acts, c.requeueLocked(t)...)
	}
	return acts
}

// Close shuts the coordinator down: pending tasks fail with ErrClosed,
// timers stop, and every endpoint answers 503. Safe to call more than once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var acts []action
	for _, id := range slices.Sorted(maps.Keys(c.tasks)) {
		acts = append(acts, c.completeLocked(c.tasks[id], taskOutcome{err: ErrClosed})...)
	}
	// An order-insensitive timer teardown.
	for _, w := range c.workers {
		if w.liveness != nil {
			w.liveness.Stop()
		}
	}
	c.mu.Unlock()
	c.perform(acts)
}

// --- HTTP handlers -------------------------------------------------------

// handleRegister admits (or refreshes) a worker. Jobs submitted while the
// fleet was empty are already queued; the worker's first pull takes them.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	if req.Worker == "" {
		HTTPError(w, http.StatusBadRequest, "empty worker id")
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		HTTPError(w, http.StatusServiceUnavailable, "coordinator closed")
		return
	}
	ws := c.workers[req.Worker]
	if ws == nil {
		ws = &workerState{id: req.Worker, inflight: make(map[uint64]*task)}
		c.workers[req.Worker] = ws
		c.workersEver++
	}
	ws.generation++
	c.resetLivenessLocked(ws)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, registerResponse{
		LeaseMillis: c.cfg.Lease.Milliseconds(),
		PollMillis:  c.cfg.PollTimeout.Milliseconds(),
	})
}

// takeOrPark serves one pull attempt: the oldest queued task, or a parked
// waiter channel to wait on. unknown=true means the worker must re-register.
func (c *Coordinator) takeOrPark(workerID string) (wire *Task, wait chan struct{}, unknown bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil || c.closed {
		return nil, nil, true
	}
	c.resetLivenessLocked(w)
	if t := c.popQueueLocked(); t != nil {
		c.dispatchLocked(t, w)
		return &Task{ID: t.id, Job: t.job}, nil, false
	}
	ch := make(chan struct{}, 1)
	c.waiters = append(c.waiters, ch)
	return nil, ch, false
}

// popQueueLocked pops the oldest still-queued task, dropping entries that
// completed or were abandoned while waiting (mu held).
func (c *Coordinator) popQueueLocked() *task {
	for len(c.queue) > 0 {
		t := c.queue[0]
		c.queue[0] = nil
		c.queue = c.queue[1:]
		if t.state == taskQueued {
			return t
		}
	}
	return nil
}

// dropWaiter removes a parked pull's wake channel after a timeout or a
// client disconnect; a signal that already consumed the waiter is harmless
// (the task stays queued for the next pull).
func (c *Coordinator) dropWaiter(ch chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, have := range c.waiters {
		if have == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// handlePull long-polls for a task: 200 with a Task, or 204 after the poll
// timeout. 410 tells an unknown (or declared-lost) worker to re-register.
func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	var req pullRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	ctx := r.Context()
	deadline := time.NewTimer(c.cfg.PollTimeout)
	defer deadline.Stop()
	for {
		wire, wait, unknown := c.takeOrPark(req.Worker)
		if unknown {
			HTTPError(w, http.StatusGone, "unknown worker %q: re-register", req.Worker)
			return
		}
		if wire != nil {
			writeJSON(w, http.StatusOK, wire)
			return
		}
		select {
		case <-wait:
			continue // work may be available; take again
		case <-deadline.C:
			c.dropWaiter(wait)
			w.WriteHeader(http.StatusNoContent)
			return
		case <-ctx.Done():
			c.dropWaiter(wait)
			return
		}
	}
}

// handleHeartbeat renews the worker's liveness and the leases of the listed
// in-flight tasks.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	c.mu.Lock()
	ws := c.workers[req.Worker]
	if ws == nil {
		c.mu.Unlock()
		HTTPError(w, http.StatusGone, "unknown worker %q: re-register", req.Worker)
		return
	}
	c.resetLivenessLocked(ws)
	for _, id := range req.Tasks {
		if t := c.tasks[id]; t != nil && t.state == taskInflight && t.owner == req.Worker {
			c.renewLeaseLocked(t)
		}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleResult acknowledges a finished task. Late or duplicate results (the
// task completed elsewhere after a re-dispatch, or was abandoned) answer 200
// and are dropped: outcomes are deterministic, so the first one delivered is
// as good as any.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	var out taskOutcome
	if req.Error != "" {
		out.err = fmt.Errorf("cluster: worker %s: %s", req.Worker, req.Error)
	} else if req.Result != nil {
		out.res = *req.Result
	} else {
		HTTPError(w, http.StatusBadRequest, "result or error required")
		return
	}
	c.mu.Lock()
	if ws := c.workers[req.Worker]; ws != nil {
		c.resetLivenessLocked(ws)
	}
	var acts []action
	if t := c.tasks[req.Task]; t != nil {
		acts = c.completeLocked(t, out)
	}
	c.mu.Unlock()
	c.perform(acts)
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleLeave drops a worker that stopped cleanly, exactly as if it had
// missed its liveness window: the tasks it held go back in play at once
// instead of after the liveness horizon. An unknown worker is a no-op.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	c.mu.Lock()
	var acts []action
	if ws := c.workers[req.Worker]; ws != nil {
		acts = c.removeWorkerLocked(ws)
	}
	c.mu.Unlock()
	c.perform(acts)
	writeJSON(w, http.StatusOK, struct{}{})
}

// DecodeRequest parses a request body that must hold exactly one JSON value
// with no unknown fields (trailing whitespace is fine), answering 400 and
// reporting false otherwise. fuseserve decodes its batches with it too.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "malformed request: %v", err)
		return false
	}
	return true
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError writes a JSON error body: {"error": message}. The coordinator
// and fuseserve answer every failed request with it.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

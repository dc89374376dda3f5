package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fuse/internal/engine"
)

// WorkerConfig configures one worker process (or one in-process worker in a
// loopback fleet).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Client is the HTTP client used for all coordinator traffic. Nil means
	// a default client; loopback fleets pass LoopbackClient. Long-polls rely
	// on per-request context timeouts, so the client should not set a global
	// Timeout.
	Client *http.Client
	// ID is the worker's registration identity. Required; must be unique in
	// the fleet (a restarted worker reuses its ID to reclaim its leases).
	ID string
	// Exec executes one pulled job. Required. cmd/fuseworker and
	// `fuseserve -localworkers` plug in engine.Execute: the front-end Runner
	// has already deduplicated the job and probed the store.
	// NewWorker wraps it in engine.ContainPanics, so a panic fails the task.
	Exec engine.ExecFunc
	// Pullers is the number of concurrent pull→execute→ack loops, i.e. how
	// many jobs the worker runs at once. Zero means 1.
	Pullers int
}

// Worker is the pull loop: register, long-poll for tasks, execute, heartbeat
// while executing, report the result. Create with NewWorker, drive with Run.
type Worker struct {
	cfg WorkerConfig

	mu    sync.Mutex
	lease time.Duration // intervals learned from the register response
	poll  time.Duration
}

// NewWorker validates the config and builds a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		return nil, errors.New("cluster: worker needs an ID")
	}
	if cfg.Exec == nil {
		return nil, errors.New("cluster: worker needs an executor")
	}
	cfg.Exec = engine.ContainPanics(cfg.Exec)
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Pullers <= 0 {
		cfg.Pullers = 1
	}
	return &Worker{cfg: cfg}, nil
}

// intervals returns the long-poll window and the heartbeat interval (a third
// of the lease) from the last registration, defaulting until the first one
// succeeds.
func (w *Worker) intervals() (poll, heartbeat time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return cmp.Or(w.poll, DefaultPollTimeout), cmp.Or(w.lease, DefaultLease) / 3
}

// Run registers with the coordinator and pulls until ctx is cancelled, then
// tells the coordinator it is leaving. Cancellation abandons in-flight work
// mid-simulation: the leave puts it back in play at once (a worker that dies
// without leaving is caught by its leases and liveness window instead), and
// a racing late result is dropped (first result wins), so a worker kill
// never corrupts a batch.
//
//fuselint:blocking loops until ctx is cancelled
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Pullers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.pullLoop(ctx)
		}()
	}
	wg.Wait()
	w.leave(ctx)
	return ctx.Err()
}

// leave tells the coordinator the worker has stopped, once, on a context
// that outlives the cancelled one. Errors are ignored: a leave that never
// lands only costs the wait for the liveness window.
func (w *Worker) leave(ctx context.Context) {
	reqCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	_, _ = w.post(reqCtx, pathLeave, leaveRequest{Worker: w.cfg.ID}, nil)
}

// register announces the worker, retrying transient failures with backoff
// until ctx is cancelled, and records the advertised intervals. Cancelled
// during a backoff, it returns ctx's error wrapped around the last failure,
// so a caller can tell a stop from a refusal.
func (w *Worker) register(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	for {
		var resp registerResponse
		status, err := w.post(ctx, pathRegister, registerRequest{Worker: w.cfg.ID}, &resp)
		if err == nil && status == http.StatusOK {
			w.mu.Lock()
			w.lease = time.Duration(resp.LeaseMillis) * time.Millisecond
			w.poll = time.Duration(resp.PollMillis) * time.Millisecond
			w.mu.Unlock()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("cluster: register %s: HTTP %d", w.cfg.ID, status)
		}
		if status == http.StatusServiceUnavailable || status == http.StatusBadRequest {
			return err // closed coordinator or a config bug: retrying is pointless
		}
		if !sleepCtx(ctx, backoff) {
			return fmt.Errorf("%w (last failure: %v)", ctx.Err(), err)
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// pullLoop is one pull→execute→ack loop.
func (w *Worker) pullLoop(ctx context.Context) {
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		t, status, err := w.pull(ctx)
		switch {
		case err != nil:
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(2*backoff, 2*time.Second)
		case status == http.StatusGone:
			// The coordinator forgot us (restart, liveness loss): rejoin.
			if w.register(ctx) != nil {
				return
			}
		case t == nil:
			// Empty poll; loop around immediately (the long-poll itself is
			// the pacing).
			backoff = 50 * time.Millisecond
		default:
			backoff = 50 * time.Millisecond
			w.runTask(ctx, t)
		}
	}
}

// pull long-polls for one task: (task, 200) on a dispatch, (nil, 204) on an
// empty poll, (nil, 410) when the worker must re-register.
func (w *Worker) pull(ctx context.Context) (*Task, int, error) {
	poll, _ := w.intervals()
	// Give the coordinator its full poll window plus transit slack.
	reqCtx, cancel := context.WithTimeout(ctx, poll+10*time.Second)
	defer cancel()
	var t Task
	status, err := w.post(reqCtx, pathPull, pullRequest{Worker: w.cfg.ID}, &t)
	if err != nil {
		return nil, 0, err
	}
	switch status {
	case http.StatusOK:
		return &t, status, nil
	case http.StatusNoContent, http.StatusGone:
		return nil, status, nil
	default:
		return nil, status, fmt.Errorf("cluster: pull: HTTP %d", status)
	}
}

// runTask executes one task, heartbeating while it runs, and reports the
// outcome. A cancelled ctx abandons the task (no report): the lease expires
// and the coordinator re-dispatches.
func (w *Worker) runTask(ctx context.Context, t *Task) {
	_, heartbeat := w.intervals()
	resCh := make(chan taskOutcome, 1)
	go w.execTask(ctx, t, resCh)
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case out := <-resCh:
			w.report(ctx, t, out)
			return
		case <-ticker.C:
			w.renew(ctx, t.ID)
		case <-ctx.Done():
			return
		}
	}
}

// execTask runs the executor and posts the outcome to the (buffered) result
// slot.
func (w *Worker) execTask(ctx context.Context, t *Task, resCh chan taskOutcome) {
	res, err := w.cfg.Exec(ctx, t.Job)
	resCh <- taskOutcome{res: res, err: err} // buffered result slot; never blocks
}

// renew heartbeats one in-flight task. Failures are ignored: the next tick
// retries, and a persistently unreachable coordinator simply lets the lease
// expire (which is the designed recovery path).
func (w *Worker) renew(ctx context.Context, id uint64) {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	status, _ := w.post(reqCtx, pathHeartbeat, heartbeatRequest{Worker: w.cfg.ID, Tasks: []uint64{id}}, nil)
	if status == http.StatusGone {
		_ = w.register(ctx)
	}
}

// report acks a finished task with its result or error, retrying transient
// failures a few times. A report that never lands is safe: the lease
// expires and another worker recomputes the identical result.
func (w *Worker) report(ctx context.Context, t *Task, out taskOutcome) {
	if out.err != nil && ctx.Err() != nil {
		// A dying worker's execution errors are its own death throes, not
		// job failures: abandon silently and let the lease re-dispatch.
		return
	}
	req := resultRequest{Worker: w.cfg.ID, Task: t.ID}
	if out.err != nil {
		req.Error = out.err.Error()
	} else {
		res := out.res
		req.Result = &res
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		status, err := w.post(reqCtx, pathResult, req, nil)
		cancel()
		if err == nil && status == http.StatusOK {
			return
		}
		if !sleepCtx(ctx, backoff) {
			return
		}
		backoff *= 2
	}
}

// post sends one JSON request and decodes a JSON response into out (when
// non-nil and the status is 200). It returns the HTTP status.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// sleepCtx waits d or until ctx is cancelled; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// The coordinator is an engine executor: compile-time proof.
var _ engine.ExecFunc = (&Coordinator{}).Execute

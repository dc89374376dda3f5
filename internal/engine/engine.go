// Package engine is the concurrent batch-execution layer of the repository.
// Every figure of the paper is a matrix of independent (L1D configuration,
// workload) simulations; the Runner executes such matrices on a bounded
// worker pool, deduplicating jobs by their one identity, the store key
// (StoreKey), both in-flight and completed (singleflight-style), so that
// figures sharing runs — 13, 14, 15, 16 and 17 all reuse the same six-kind
// matrix — never simulate the same point twice.
//
// The Runner guarantees deterministic result ordering: RunBatch returns
// outcomes in submission order regardless of the order in which the workers
// finish, so a parallel figure regeneration is byte-identical to the serial
// one.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"fuse/internal/config"
	"fuse/internal/sim"
	"fuse/internal/store"
	"fuse/internal/trace"
)

// Job describes one simulation to execute. Two jobs are the same simulation —
// and are deduplicated — when their store keys (StoreKey) are equal: the
// effective GPU configuration, the workload's key material and the options
// with their defaults applied, never the label.
type Job struct {
	// Kind selects the L1D configuration on the Fermi-class GPU. It is
	// ignored when GPU is set.
	Kind config.L1DKind
	// Workload is the workload name, resolved through the trace registry
	// (builtin benchmarks — see trace.Names — and registered custom or
	// phased workloads alike).
	Workload string
	// Label names a custom-GPU job in progress lines and errors. It is
	// display-only: jobs with one label and different GPUs are different
	// simulations, and jobs with different labels and one GPU are the same.
	Label string
	// GPU, when non-nil, overrides the Fermi-class GPU built from Kind.
	GPU *config.GPUConfig
	// Opts are the simulation options (scale, seed, SM override...).
	Opts sim.Options
}

// Key summarises a Job's kind, workload, label and options. It is not the
// job's identity (StoreKey is) and the Runner does not use it; it remains for
// fusebench's figure-matrix job list, and goes once that list uses StoreKey.
type Key struct {
	Kind     config.L1DKind
	Workload string
	Label    string
	Opts     sim.Options
}

// Key returns the job's Key summary (see Key).
func (j Job) Key() Key {
	return Key{Kind: j.Kind, Workload: j.Workload, Label: j.Label, Opts: j.Opts}
}

// String renders a short human-readable job name (for progress lines).
func (j Job) String() string {
	name := j.Kind.String()
	if j.Label != "" {
		name = j.Label
	}
	return name + "/" + j.Workload
}

// GPUConfig returns the job's effective GPU configuration: the explicit
// override, or the Fermi-class GPU built from the job's L1D kind.
func (j Job) GPUConfig() config.GPUConfig {
	if j.GPU != nil {
		return *j.GPU
	}
	return config.FermiGPU(config.NewL1DConfig(j.Kind))
}

// BackendJob builds the canonical job for a kind-based simulation on an
// explicit memory backend: the Fermi-class GPU with MemBackend set under the
// "<kind>@<backend>" label. The CLI tools, the server and the experiment
// matrix all build backend-override jobs through this one helper, so the
// same logical point always hashes to the same store key.
func BackendJob(kind config.L1DKind, workload, backend string, opts sim.Options) Job {
	cfg := config.FermiGPU(config.NewL1DConfig(kind))
	cfg.MemBackend = backend
	return Job{Label: kind.String() + "@" + backend, GPU: &cfg, Workload: workload, Opts: opts}
}

// StoreKey returns the job's content-addressed result-store key: the stable
// hash of its effective GPU configuration, workload key material and
// simulation options (see store.Key). It is the job's identity, within one
// Runner and across processes. The workload name is resolved through the
// trace registry, so custom (file-loaded or API-registered) workloads key
// exactly like builtins, and an unknown workload has no key.
func StoreKey(job Job) (string, error) {
	w, err := trace.LookupWorkload(job.Workload)
	if err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	return store.Key(job.GPUConfig(), w, job.Opts)
}

// ExecFunc is the executor signature of the engine: one job run to
// completion under a context. Execute is the local implementation; the
// cluster coordinator's Execute method is the distributed one, and tests
// substitute counting or stalling stubs.
type ExecFunc = func(context.Context, Job) (sim.Result, error)

// Cache is the pluggable second-tier result cache of a Runner: it is
// consulted (by store key) before a job is executed and written through after
// a successful execution. It is store.Cache by another name (an alias, so the
// two can never drift apart): store.Memory, store.Disk and store.Tiered all
// satisfy it, and a nil cache disables the tier. Implementations must be safe
// for concurrent use.
type Cache = store.Cache

// Execute runs one job to completion. It is the default executor of a Runner
// and the single place where the engine touches the simulator. The context
// is threaded into the simulator's cycle loop, so cancellation aborts
// in-flight simulations, not just queued ones.
//
//fuselint:blocking runs a full simulation to completion
func Execute(ctx context.Context, job Job) (sim.Result, error) {
	w, err := trace.LookupWorkload(job.Workload)
	if err != nil {
		return sim.Result{}, fmt.Errorf("engine: %w", err)
	}
	s, err := sim.New(job.GPUConfig(), w, job.Opts)
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunContext(ctx)
}

// Progress is one progress-callback notification, fired when a job finishes
// executing: job Done of Total freshly executed jobs in the batch have
// completed (Done counts successes and failures; jobs served from the cache
// or from another batch's in-flight work are not notified). Notifications
// arrive in completion order, as the workers finish.
type Progress struct {
	Done  int
	Total int
	Job   Job
	Err   error
}

// Config configures a Runner.
type Config struct {
	// Workers bounds the number of simulations executing at once.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// Exec overrides the job executor (tests use this to count or stall
	// executions; fuseserve's coordinator mode plugs in the cluster's
	// fan-out executor). Nil means Execute.
	Exec ExecFunc
	// Progress, when non-nil, is called as each freshly executed job
	// completes. Calls are serialised per batch; the callback must not
	// block for long.
	Progress func(Progress)
	// Cache, when non-nil, is the second-tier result cache (typically a
	// store.Tiered composing a memory tier over a persistent disk store):
	// jobs whose store key hits the cache skip execution entirely, and
	// freshly executed results are written through.
	Cache Cache
}

// PanicError is the per-job error a panicking execution is converted into:
// the recovered value plus the goroutine stack at the panic site. A panic in
// one simulation never takes down the worker pool or the process. The stack
// stays out of the message, which reaches clients; ContainPanics logs it.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v", e.Value)
}

// JobError pairs a failed job with its error.
type JobError struct {
	Job Job
	Err error
}

// BatchError collects the per-job failures of one batch.
type BatchError struct {
	Errors []JobError
}

// Error implements the error interface.
func (e *BatchError) Error() string {
	if len(e.Errors) == 1 {
		return fmt.Sprintf("engine: job %s: %v", e.Errors[0].Job, e.Errors[0].Err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d jobs failed:", len(e.Errors))
	for _, je := range e.Errors {
		fmt.Fprintf(&b, "\n  %s: %v", je.Job, je.Err)
	}
	return b.String()
}

// Unwrap exposes the first underlying error (so errors.Is sees context
// cancellation).
func (e *BatchError) Unwrap() error {
	if len(e.Errors) == 0 {
		return nil
	}
	return e.Errors[0].Err
}

// call is one in-flight or completed execution shared by every batch that
// asked for the same store key.
type call struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Runner executes batches of simulation jobs on a worker pool, caching every
// completed result for the lifetime of the Runner.
type Runner struct {
	workers  int
	exec     ExecFunc // panic-contained
	progress func(Progress)
	cache    Cache
	sem      chan struct{}

	mu        sync.Mutex
	calls     map[string]*call // by store key
	completed int
	executed  int
	storeHits int
	panicked  int
}

// New creates a Runner. A zero Config is valid: GOMAXPROCS workers, the real
// simulator executor, no progress callback.
func New(cfg Config) *Runner {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	exec := cfg.Exec
	if exec == nil {
		exec = Execute
	}
	return &Runner{
		workers:  workers,
		exec:     ContainPanics(exec),
		progress: cfg.Progress,
		cache:    cfg.Cache,
		sem:      make(chan struct{}, workers),
		calls:    make(map[string]*call),
	}
}

// Workers returns the size of the worker pool.
func (r *Runner) Workers() int { return r.workers }

// Completed returns the number of successfully completed (cached) jobs.
func (r *Runner) Completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.completed
}

// Executed returns the number of simulations this Runner actually ran to a
// successful completion — jobs served from the second-tier cache or from the
// in-process dedup map are not counted.
func (r *Runner) Executed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// StoreHits returns the number of jobs served from the second-tier cache
// instead of being executed.
func (r *Runner) StoreHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeHits
}

// Panics returns the number of executions that panicked and were converted
// into per-job errors.
func (r *Runner) Panics() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.panicked
}

// finish records a call's outcome (a failed call's result is zero). Context
// errors are evicted from the cache so that a later batch (with a live
// context) runs the job again instead of replaying the cancellation.
func (r *Runner) finish(key string, c *call, res sim.Result, err error) {
	r.mu.Lock()
	c.err = err
	if err == nil {
		c.res = res
		r.completed++
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		delete(r.calls, key)
	}
	r.mu.Unlock()
	close(c.done)
}

// progressState is one batch's completion accounting for the progress
// callback: its mutex both counts completions and serialises the callback
// invocations of that batch.
type progressState struct {
	mu    sync.Mutex
	done  int
	total int
}

// notify reports one completed job to the progress callback. It runs before
// the call is marked finished, so every notification of a batch has been
// delivered by the time RunBatch returns.
func (r *Runner) notify(p *progressState, job Job, err error) {
	if r.progress == nil || p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	r.progress(Progress{Done: p.done, Total: p.total, Job: job, Err: err})
}

// ContainPanics wraps an executor so that a panic in it (or in the simulator
// under it) returns a *PanicError instead of unwinding the calling goroutine,
// and logs the job's name and the stack there, once. The Runner, fleet
// workers and the coordinator's local fallback all use it.
func ContainPanics(exec ExecFunc) ExecFunc {
	return func(ctx context.Context, job Job) (res sim.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				pe := &PanicError{Value: v, Stack: debug.Stack()}
				log.Printf("engine: job %s panicked: %v\n%s", job, v, pe.Stack)
				res, err = sim.Result{}, pe
			}
		}()
		return exec(ctx, job)
	}
}

// run executes one call: first past the second-tier result cache (a hit
// skips the worker pool entirely), then once on the pool itself, writing
// fresh results back through the cache. A failure is final: a simulation is
// a pure function of its job, so running it again would fail the same way,
// and the fleet re-dispatches the work of a lost worker itself.
func (r *Runner) run(ctx context.Context, key string, c *call, job Job, p *progressState) {
	if r.cache != nil {
		if res, ok := r.cache.Get(key); ok {
			r.mu.Lock()
			r.storeHits++
			r.mu.Unlock()
			r.notify(p, job, nil)
			r.finish(key, c, res, nil)
			return
		}
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		r.notify(p, job, ctx.Err())
		r.finish(key, c, sim.Result{}, ctx.Err())
		return
	}
	defer func() { <-r.sem }() // releases the slot the select above acquired; never blocks
	res, err := r.exec(ctx, job)
	var pe *PanicError
	r.mu.Lock()
	if err == nil {
		r.executed++
	} else if errors.As(err, &pe) {
		r.panicked++
	}
	r.mu.Unlock()
	if err == nil && r.cache != nil {
		r.cache.Put(key, res)
	}
	r.notify(p, job, err)
	r.finish(key, c, res, err)
}

// Outcome is one job's share of a batch: its store key (empty when the key
// cannot be derived), its result (zero when Err is set) and its error.
type Outcome struct {
	Key    string
	Result sim.Result
	Err    error
}

// RunBatch executes every job (deduplicated by store key against the batch
// itself, against in-flight work and against completed results) and returns
// the outcomes in submission order. The returned error is nil when every job
// succeeded, or a *BatchError listing each failed job. A job whose key cannot
// be derived (an unknown workload) fails at once and is never executed.
// Cancelling the context abandons jobs that have not started and fails them
// with the context's error.
//
//fuselint:blocking waits for every simulation in the batch
func (r *Runner) RunBatch(ctx context.Context, jobs []Job) ([]Outcome, error) {
	// Pass 1: derive every key, then resolve every job to its (possibly
	// shared) call under one lock. Spawning waits until the batch's fresh-job
	// count is known, so progress notifications carry the right Total.
	out := make([]Outcome, len(jobs))
	for i, job := range jobs {
		out[i].Key, out[i].Err = StoreKey(job)
	}
	calls := make([]*call, len(jobs))
	var mine []int // the jobs whose calls this batch claimed
	r.mu.Lock()
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		c, ok := r.calls[out[i].Key]
		if !ok {
			c = &call{done: make(chan struct{})}
			r.calls[out[i].Key] = c
			mine = append(mine, i)
		}
		calls[i] = c
	}
	r.mu.Unlock()

	// Pass 2: execute this batch's fresh jobs on the worker pool.
	prog := &progressState{total: len(mine)}
	for _, i := range mine {
		go r.run(ctx, out[i].Key, calls[i], jobs[i], prog)
	}

	var batchErr BatchError
	for i, c := range calls {
		if c != nil {
			select {
			case <-c.done:
			case <-ctx.Done():
				// Wait for the call anyway: its goroutine observes the same
				// context and finishes promptly, and waiting keeps the
				// completion accounting exact.
				<-c.done
			}
			out[i].Result, out[i].Err = c.res, c.err
		}
		if out[i].Err != nil {
			batchErr.Errors = append(batchErr.Errors, JobError{Job: jobs[i], Err: out[i].Err})
		}
	}
	if len(batchErr.Errors) > 0 {
		return out, &batchErr
	}
	return out, nil
}

// Get executes (or fetches the cached result of) a single job.
//
//fuselint:blocking waits for the job's simulation
func (r *Runner) Get(ctx context.Context, job Job) (sim.Result, error) {
	out, _ := r.RunBatch(ctx, []Job{job})
	return out[0].Result, out[0].Err
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/config"
	"fuse/internal/sim"
	"fuse/internal/trace"
)

// quickOpts keeps real-simulator test runs small and fast.
func quickOpts() sim.Options {
	return sim.Options{InstructionsPerWarp: 100, Seed: 7, SMOverride: 1, MaxCycles: 1_000_000}
}

// countingExec returns a fake executor that counts executions and stamps
// the result with the job's workload and L1D kind.
func countingExec(total *atomic.Int64) func(context.Context, Job) (sim.Result, error) {
	return func(_ context.Context, job Job) (sim.Result, error) {
		total.Add(1)
		return sim.Result{Workload: job.Workload, L1DKind: job.GPUConfig().L1D.Kind}, nil
	}
}

// results returns the results of a batch's outcomes.
func results(out []Outcome) []sim.Result {
	res := make([]sim.Result, len(out))
	for i, o := range out {
		res[i] = o.Result
	}
	return res
}

func TestDefaultsAndWorkers(t *testing.T) {
	r := New(Config{})
	if r.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", r.Workers(), runtime.GOMAXPROCS(0))
	}
	if got := New(Config{Workers: 3}).Workers(); got != 3 {
		t.Errorf("Workers = %d, want 3", got)
	}
	if got := New(Config{Workers: -1}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative workers should fall back to GOMAXPROCS, got %d", got)
	}
}

func TestBatchDeduplicatesWithinAndAcrossBatches(t *testing.T) {
	var total atomic.Int64
	r := New(Config{Workers: 4, Exec: countingExec(&total)})

	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX"},
		{Kind: config.DyFUSE, Workload: "ATAX"},
		{Kind: config.L1SRAM, Workload: "ATAX"}, // duplicate of job 0
		{Kind: config.L1SRAM, Workload: "GEMM"},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(jobs))
	}
	if total.Load() != 3 {
		t.Errorf("expected 3 unique executions, got %d", total.Load())
	}
	res := results(out)
	if res[0].Workload != "ATAX" || res[2].Workload != "ATAX" || res[3].Workload != "GEMM" {
		t.Errorf("results misordered: %+v", res)
	}
	for i, job := range jobs {
		if key, _ := StoreKey(job); out[i].Key != key {
			t.Errorf("outcome %d: key %q, want the job's store key %q", i, out[i].Key, key)
		}
	}
	if r.Completed() != 3 {
		t.Errorf("Completed = %d, want 3", r.Completed())
	}

	// A second batch over the same keys is served fully from the cache.
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 3 || r.Executed() != 3 {
		t.Errorf("cached batch should not re-execute, got %d executions (Executed %d)", total.Load(), r.Executed())
	}
	if r.Completed() != 3 {
		t.Errorf("Completed = %d after the cached batch, want 3", r.Completed())
	}
}

func TestInFlightDeduplication(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var total atomic.Int64
	var once sync.Once
	r := New(Config{Workers: 4, Exec: func(_ context.Context, job Job) (sim.Result, error) {
		total.Add(1)
		once.Do(func() { close(started) })
		<-release
		return sim.Result{Workload: job.Workload}, nil
	}})

	job := Job{Kind: config.DyFUSE, Workload: "ATAX"}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Get(context.Background(), job); err != nil {
				t.Errorf("Get: %v", err)
			}
		}()
	}
	<-started
	// All three Gets are now waiting on the same in-flight call.
	close(release)
	wg.Wait()
	if total.Load() != 1 {
		t.Errorf("in-flight duplicates should share one execution, got %d", total.Load())
	}
}

func TestDeterministicOrderingUnderConcurrency(t *testing.T) {
	// Jobs finish in reverse submission order (later jobs sleep less), yet
	// the result slice must follow submission order.
	names := trace.BuiltinNames()[:8]
	r := New(Config{Workers: 8, Exec: func(_ context.Context, job Job) (sim.Result, error) {
		i := slices.Index(names, job.Workload)
		time.Sleep(time.Duration(8-i) * time.Millisecond)
		return sim.Result{Workload: job.Workload, Cycles: int64(i)}, nil
	}})
	jobs := make([]Job, len(names))
	for i, w := range names {
		jobs[i] = Job{Kind: config.DyFUSE, Workload: w}
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := results(out)
	for i := range jobs {
		if res[i].Cycles != int64(i) {
			t.Fatalf("result %d out of order: %+v", i, res[i])
		}
	}
}

func TestPerJobErrorCollection(t *testing.T) {
	sentinel := errors.New("boom")
	r := New(Config{Workers: 2, Exec: func(_ context.Context, job Job) (sim.Result, error) {
		if job.Workload == "GEMM" {
			return sim.Result{}, sentinel
		}
		return sim.Result{Workload: job.Workload}, nil
	}})
	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX"},
		{Kind: config.L1SRAM, Workload: "GEMM"},
		{Kind: config.DyFUSE, Workload: "GEMM"},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected a batch error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error should be a *BatchError, got %T", err)
	}
	if len(be.Errors) != 2 {
		t.Fatalf("expected 2 job errors, got %d: %v", len(be.Errors), be)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("BatchError should unwrap to the job error")
	}
	if out[0].Result.Workload != "ATAX" || out[0].Err != nil {
		t.Errorf("successful job's result should survive a partial failure")
	}
	if !errors.Is(out[1].Err, sentinel) || !errors.Is(out[2].Err, sentinel) || out[1].Key == "" {
		t.Errorf("failed outcomes should carry their key and error: %+v", out[1:])
	}
	if r.Completed() != 1 {
		t.Errorf("only the successful job should count as completed, got %d", r.Completed())
	}
	// Deterministic failures stay cached: Get replays the error without
	// a new execution.
	if _, err := r.Get(context.Background(), jobs[1]); !errors.Is(err, sentinel) {
		t.Errorf("cached failure should replay, got %v", err)
	}
	if s := be.Error(); s == "" {
		t.Errorf("BatchError message should not be empty")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var stall atomic.Bool
	stall.Store(true)
	r := New(Config{Workers: 1, Exec: func(ctx context.Context, job Job) (sim.Result, error) {
		if !stall.Load() {
			return sim.Result{Workload: job.Workload}, nil
		}
		once.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return sim.Result{Workload: job.Workload}, nil
		}
	}})
	go func() {
		<-started
		cancel()
	}()
	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX"},
		{Kind: config.DyFUSE, Workload: "GEMM"}, // never gets a worker
	}
	_, err := r.RunBatch(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if r.Completed() != 0 {
		t.Errorf("cancelled jobs must not count as completed, got %d", r.Completed())
	}

	// Cancellation must not poison the cache: the cancelled calls were
	// evicted, so a batch with a live context executes them again.
	stall.Store(false)
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Errorf("retry after cancellation: %v", err)
	}
	if r.Completed() != 2 || r.Executed() != 2 {
		t.Errorf("retry after cancellation: Completed %d, Executed %d, want 2 and 2", r.Completed(), r.Executed())
	}
}

// TestCancelledBatchStartsNoQueuedJob pins that the pool slot is acquired
// under the batch context: a job still queued when the batch is cancelled
// never reaches an executor, even one that ignores its context.
func TestCancelledBatchStartsNoQueuedJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	progress := make(chan Progress, 2)
	r := New(Config{
		Workers:  1,
		Progress: func(p Progress) { progress <- p },
		Exec: func(_ context.Context, job Job) (sim.Result, error) {
			if calls.Add(1) == 1 {
				close(started)
				<-release
			}
			return sim.Result{Workload: job.Workload}, nil
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.RunBatch(ctx, []Job{
			{Kind: config.L1SRAM, Workload: "ATAX"},
			{Kind: config.L1SRAM, Workload: "GEMM"},
		})
		done <- err
	}()
	<-started
	cancel()
	// The queued job fails with the context's error while the first still
	// holds the only slot; only then is the slot released.
	select {
	case p := <-progress:
		if !errors.Is(p.Err, context.Canceled) {
			t.Errorf("first notification: %+v, want the queued job failing with context.Canceled", p)
		}
	case <-time.After(2 * time.Second):
		t.Error("the queued job did not fail while the pool was full")
	}
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("RunBatch: %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("Exec called %d times, want 1: a cancelled batch started a queued job", n)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	r := New(Config{Workers: 2, Progress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}, Exec: func(_ context.Context, job Job) (sim.Result, error) {
		return sim.Result{Workload: job.Workload}, nil
	}})
	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX"},
		{Kind: config.L1SRAM, Workload: "ATAX"}, // deduplicated: one notification
		{Kind: config.L1SRAM, Workload: "GEMM"},
	}
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("expected one progress event per unique job, got %d", len(events))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != 2 {
			t.Errorf("event %d: Done=%d Total=%d, want %d/2", i, p.Done, p.Total, i+1)
		}
		if p.Err != nil {
			t.Errorf("event %d: unexpected error %v", i, p.Err)
		}
	}

	// A fully cached batch executes nothing, so it notifies nothing.
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Errorf("cache-served batch should emit no progress events, got %d total", len(events))
	}
}

func TestExecuteRealSimulator(t *testing.T) {
	r := New(Config{Workers: 2})
	// A kind-based job and a custom-GPU job of the same workload.
	gpu := config.FermiGPU(config.OracleL1D())
	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "pathf", Opts: quickOpts()},
		{Label: "oracle", GPU: &gpu, Workload: "pathf", Opts: quickOpts()},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := results(out)
	if res[0].IPC <= 0 || res[1].IPC <= 0 {
		t.Errorf("both simulations should produce a positive IPC: %v, %v", res[0].IPC, res[1].IPC)
	}
	if res[0].Workload != "pathf" || res[1].Workload != "pathf" {
		t.Errorf("results should identify the workload")
	}

	// Unknown workloads fail per job, for both execution paths.
	if _, err := r.Get(context.Background(), Job{Kind: config.L1SRAM, Workload: "nope", Opts: quickOpts()}); err == nil {
		t.Errorf("unknown workload (kind path) should fail")
	}
	if _, err := r.Get(context.Background(), Job{Label: "x", GPU: &gpu, Workload: "nope", Opts: quickOpts()}); err == nil {
		t.Errorf("unknown workload (custom path) should fail")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The engine's core guarantee: a parallel batch produces exactly the
	// same results, in the same order, as a serial one.
	opts := quickOpts()
	kinds := []config.L1DKind{config.L1SRAM, config.ByNVM, config.DyFUSE}
	workloads := []string{"ATAX", "pathf"}
	var jobs []Job
	for _, k := range kinds {
		for _, w := range workloads {
			jobs = append(jobs, Job{Kind: k, Workload: w, Opts: opts})
		}
	}
	serial, err := New(Config{Workers: 1}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Config{Workers: 4}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Result != parallel[i].Result {
			t.Errorf("job %d (%s): parallel result differs from serial", i, jobs[i])
		}
	}
}

func TestJobString(t *testing.T) {
	j := Job{Kind: config.DyFUSE, Workload: "ATAX"}
	if j.String() != "Dy-FUSE/ATAX" {
		t.Errorf("Job.String() = %q", j.String())
	}
	j.Label = "volta-Dy-FUSE"
	if j.String() != "volta-Dy-FUSE/ATAX" {
		t.Errorf("labelled Job.String() = %q", j.String())
	}
}

// recordingCache is a Cache that counts gets/puts and stores in a map.
type recordingCache struct {
	mu   sync.Mutex
	m    map[string]sim.Result
	gets int
	puts int
}

func newRecordingCache() *recordingCache {
	return &recordingCache{m: make(map[string]sim.Result)}
}

func (c *recordingCache) Get(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	res, ok := c.m[key]
	return res, ok
}

func (c *recordingCache) Put(key string, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = res
}

func TestStoreKeyStableAndDiscriminating(t *testing.T) {
	job := Job{Kind: config.DyFUSE, Workload: "ATAX", Opts: quickOpts()}
	k1, err := StoreKey(job)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := StoreKey(Job{Kind: config.DyFUSE, Workload: "ATAX", Opts: quickOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical jobs should share a store key")
	}
	k3, err := StoreKey(Job{Kind: config.L1SRAM, Workload: "ATAX", Opts: quickOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Errorf("different kinds should produce different store keys")
	}
	// A custom-GPU job keys on the configuration itself, not the label.
	gpu := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	k4, err := StoreKey(Job{Label: "custom", GPU: &gpu, Workload: "ATAX", Opts: quickOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if k4 != k1 {
		t.Errorf("a custom job with the Fermi Dy-FUSE config is the same simulation: %s vs %s", k4, k1)
	}
	if _, err := StoreKey(Job{Kind: config.DyFUSE, Workload: "nope"}); err == nil {
		t.Errorf("unknown workload should fail")
	}
}

func TestRunnerServesFromSecondTierCache(t *testing.T) {
	cache := newRecordingCache()
	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX", Opts: quickOpts()},
		{Kind: config.DyFUSE, Workload: "ATAX", Opts: quickOpts()},
	}

	var total1 atomic.Int64
	r1 := New(Config{Workers: 2, Cache: cache, Exec: countingExec(&total1)})
	res1, err := r1.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Executed(); got != 2 {
		t.Errorf("cold runner executed %d, want 2", got)
	}
	if got := r1.StoreHits(); got != 0 {
		t.Errorf("cold runner had %d store hits, want 0", got)
	}
	if cache.puts != 2 {
		t.Errorf("results should be written through: puts = %d", cache.puts)
	}

	// A fresh Runner sharing the cache executes nothing.
	var total2 atomic.Int64
	r2 := New(Config{Workers: 2, Cache: cache, Exec: countingExec(&total2)})
	res2, err := r2.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if total2.Load() != 0 {
		t.Errorf("warm runner executed %d simulations, want 0", total2.Load())
	}
	if got := r2.StoreHits(); got != 2 {
		t.Errorf("warm runner store hits = %d, want 2", got)
	}
	if got := r2.Executed(); got != 0 {
		t.Errorf("warm runner Executed() = %d, want 0", got)
	}
	for i := range res1 {
		if res1[i].Result != res2[i].Result {
			t.Errorf("job %d: warm result differs from cold", i)
		}
	}
	// Cache-served results still land in the Runner's first-tier dedup map.
	if r2.Completed() != 2 {
		t.Errorf("Completed = %d, want 2", r2.Completed())
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	cache := newRecordingCache()
	boom := errors.New("boom")
	r := New(Config{Workers: 1, Cache: cache, Exec: func(context.Context, Job) (sim.Result, error) {
		return sim.Result{}, boom
	}})
	_, err := r.RunBatch(context.Background(), []Job{{Kind: config.L1SRAM, Workload: "ATAX", Opts: quickOpts()}})
	if err == nil {
		t.Fatal("expected batch error")
	}
	if cache.puts != 0 {
		t.Errorf("failed jobs must not be written to the cache: puts = %d", cache.puts)
	}
	if r.Executed() != 0 {
		t.Errorf("failed executions should not count: Executed = %d", r.Executed())
	}
}

func TestPanicRecoveryBecomesPerJobError(t *testing.T) {
	var total atomic.Int64
	r := New(Config{Workers: 2, Exec: func(_ context.Context, job Job) (sim.Result, error) {
		total.Add(1)
		if job.Workload == "GEMM" {
			panic("simulated explosion")
		}
		return sim.Result{Workload: job.Workload}, nil
	}})

	jobs := []Job{
		{Kind: config.L1SRAM, Workload: "ATAX"},
		{Kind: config.L1SRAM, Workload: "GEMM"},
		{Kind: config.L1SRAM, Workload: "2MM"},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatalf("expected a batch error for the panicking job")
	}
	var be *BatchError
	if !errors.As(err, &be) || len(be.Errors) != 1 {
		t.Fatalf("want exactly one failed job, got %v", err)
	}
	var pe *PanicError
	if !errors.As(be.Errors[0].Err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", be.Errors[0].Err, be.Errors[0].Err)
	}
	if pe.Value != "simulated explosion" || len(pe.Stack) == 0 {
		t.Errorf("PanicError should carry the value and a stack: %+v", pe.Value)
	}
	// The message reaches clients, so the stack stays out of it.
	if msg := pe.Error(); msg != "engine: job panicked: simulated explosion" {
		t.Errorf("PanicError message = %q, want the panic value alone", msg)
	}
	// The pool survived: the healthy jobs completed normally.
	if out[0].Result.Workload != "ATAX" || out[2].Result.Workload != "2MM" {
		t.Errorf("healthy jobs should complete despite the panic")
	}
	if r.Panics() != 1 {
		t.Errorf("Panics = %d, want 1", r.Panics())
	}
	// The pool is still usable after the panic.
	if _, err := r.Get(context.Background(), Job{Kind: config.DyFUSE, Workload: "ATAX"}); err != nil {
		t.Errorf("runner unusable after panic: %v", err)
	}
}

func TestFailedJobExecutesOnce(t *testing.T) {
	// A failure is final: the job runs once, its error is reported, and a
	// later batch asking for the same job gets the same error without
	// running it again.
	var attempts atomic.Int64
	r := New(Config{
		Workers: 1,
		Exec: func(_ context.Context, _ Job) (sim.Result, error) {
			return sim.Result{}, fmt.Errorf("failure %d", attempts.Add(1))
		},
	})
	job := Job{Kind: config.L1SRAM, Workload: "ATAX"}
	for i := 0; i < 2; i++ {
		if _, err := r.Get(context.Background(), job); err == nil || err.Error() != "failure 1" {
			t.Fatalf("Get %d: want the one execution's error, got %v", i, err)
		}
	}
	if attempts.Load() != 1 || r.Executed() != 0 {
		t.Errorf("executions = %d, Executed = %d; want 1, 0", attempts.Load(), r.Executed())
	}
}

func TestOneLabelDifferentGPUsAreDifferentSimulations(t *testing.T) {
	// The label is display-only: two custom GPUs under one label are two
	// simulations with two results.
	var total atomic.Int64
	r := New(Config{Workers: 2, Exec: countingExec(&total)})
	sram := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	fuse := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	jobs := []Job{
		{Label: "custom", GPU: &sram, Workload: "ATAX", Opts: quickOpts()},
		{Label: "custom", GPU: &fuse, Workload: "ATAX", Opts: quickOpts()},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 2 {
		t.Errorf("executions = %d, want 2", total.Load())
	}
	if out[0].Result.L1DKind != config.L1SRAM || out[1].Result.L1DKind != config.DyFUSE || out[0].Key == out[1].Key {
		t.Errorf("jobs sharing a label shared a result: %+v", out)
	}
}

func TestDefaultedOptionsShareOneExecution(t *testing.T) {
	// Zero options and their explicit defaults describe one simulation.
	var total atomic.Int64
	r := New(Config{Workers: 2, Exec: countingExec(&total)})
	jobs := []Job{
		{Kind: config.DyFUSE, Workload: "ATAX"},
		{Kind: config.DyFUSE, Workload: "ATAX", Opts: sim.Options{}.WithDefaults()},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 1 || r.Executed() != 1 {
		t.Errorf("executions = %d (Executed %d), want 1", total.Load(), r.Executed())
	}
	if out[0].Key != out[1].Key {
		t.Errorf("defaulted twins have different keys: %s, %s", out[0].Key, out[1].Key)
	}
}

func TestUnknownWorkloadFailsOnlyItsJob(t *testing.T) {
	// A job without a store key fails at once: it is never executed and
	// never counted, and the rest of the batch runs.
	var total atomic.Int64
	r := New(Config{Workers: 2, Exec: countingExec(&total)})
	jobs := []Job{
		{Kind: config.DyFUSE, Workload: "ATAX"},
		{Kind: config.DyFUSE, Workload: "nope"},
		{Kind: config.DyFUSE, Workload: "GEMM"},
	}
	out, err := r.RunBatch(context.Background(), jobs)
	var be *BatchError
	if !errors.As(err, &be) || len(be.Errors) != 1 || be.Errors[0].Job.Workload != "nope" {
		t.Fatalf("want exactly the unknown-workload job to fail, got %v", err)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), `unknown workload "nope"`) || out[1].Key != "" {
		t.Errorf("unknown-workload outcome = %+v", out[1])
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", out[0].Err, out[2].Err)
	}
	if total.Load() != 2 || r.Executed() != 2 {
		t.Errorf("executions %d, Executed %d; want 2, 2", total.Load(), r.Executed())
	}
}

// BenchmarkStoreKey measures deriving one job's store key, the work the
// Runner does once per submitted job.
func BenchmarkStoreKey(b *testing.B) {
	job := Job{Kind: config.DyFUSE, Workload: "ATAX", Opts: sim.Options{InstructionsPerWarp: 400, SMOverride: 2, Seed: 42}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := StoreKey(job); err != nil {
			b.Fatal(err)
		}
	}
}

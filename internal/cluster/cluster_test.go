package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/store"
)

// testWorkloads is the figure-matrix subset the cluster tests render: small
// enough to keep `go test` fast, two workloads so the queue holds more jobs
// than one worker runs at once.
var testWorkloads = []string{"ATAX", "GEMM"}

// refFig13 renders the single-process reference table for Fig 13 at quick
// scale — the bytes every cluster execution must reproduce.
func refFig13(t *testing.T) string {
	t.Helper()
	runner := engine.New(engine.Config{})
	matrix := experiments.NewMatrixRunner(experiments.QuickScale, runner)
	table, err := experiments.RunContext(context.Background(), matrix, experiments.ExpFig13, testWorkloads)
	if err != nil {
		t.Fatalf("reference fig13: %v", err)
	}
	return table.String()
}

// fleetFig13 renders the same table through a coordinator + n loopback
// workers and returns the bytes, the coordinator stats and the number of
// simulations the front-end runner counted as executed.
func fleetFig13(t *testing.T, n int) (string, Stats, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	coord := New(Config{})
	defer coord.Close()
	fleet, err := StartFleet(ctx, coord, n, engine.Execute)
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	defer fleet.Stop()

	runner := engine.New(engine.Config{Exec: coord.Execute})
	matrix := experiments.NewMatrixRunner(experiments.QuickScale, runner)
	table, err := experiments.RunContext(ctx, matrix, experiments.ExpFig13, testWorkloads)
	if err != nil {
		t.Fatalf("fleet fig13 (%d workers): %v", n, err)
	}
	return table.String(), coord.Stats(), runner.Executed()
}

// checkConservation asserts the fleet's books balance once a run has
// returned: nothing left queued or leased, nothing failed, and exactly one
// coordinator completion per simulation the front-end runner executed.
func checkConservation(t *testing.T, label string, s Stats, executed int) {
	t.Helper()
	if s.Queued != 0 || s.InFlight != 0 || s.Failed != 0 {
		t.Errorf("%s: Queued=%d InFlight=%d Failed=%d after the run, want all 0", label, s.Queued, s.InFlight, s.Failed)
	}
	if s.Completed != int64(executed) {
		t.Errorf("%s: coordinator Completed=%d, runner Executed=%d, want equal", label, s.Completed, executed)
	}
}

// TestFleetMatrixByteIdentical is the tentpole acceptance test: the Fig 13
// matrix executed via coordinator + N in-process workers renders exactly the
// single-process bytes for N ∈ {1, 2, 4}, and the jobs really did travel
// through the fleet.
func TestFleetMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick-scale simulations")
	}
	ref := refFig13(t)
	for _, n := range []int{1, 2, 4} {
		got, stats, executed := fleetFig13(t, n)
		if got != ref {
			t.Errorf("%d workers: table differs from single-process run\nref:\n%s\ngot:\n%s", n, ref, got)
		}
		if stats.Dispatched == 0 {
			t.Errorf("%d workers: no dispatches recorded — jobs did not go through the fleet", n)
		}
		if stats.LocalRuns != 0 {
			t.Errorf("%d workers: %d jobs fell back to local execution", n, stats.LocalRuns)
		}
		if stats.Completed == 0 {
			t.Errorf("%d workers: no completions recorded", n)
		}
		checkConservation(t, fmt.Sprintf("%d workers", n), stats, executed)
	}
}

// countingExec wraps engine.Execute and counts real simulations.
func countingExec(n *atomic.Int64) engine.ExecFunc {
	return func(ctx context.Context, job engine.Job) (sim.Result, error) {
		n.Add(1)
		return engine.Execute(ctx, job)
	}
}

// TestFleetWarmRerunExecutesNothing runs the production wiring twice: the
// front-end runner sits over a shared cache and executes through a
// coordinator with two workers. After a cold run populates the cache, a
// completely fresh fleet (fresh coordinator, fresh workers, fresh front-end
// runner) sharing only that cache serves the same matrix with zero
// simulations and zero dispatches — the front-end cache answers every job
// before the coordinator sees it.
func TestFleetWarmRerunExecutesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick-scale simulations")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	shared := store.NewMemory() // the front-end store both phases share

	run := func(phase string) (string, int64, Stats) {
		var sims atomic.Int64
		coord := New(Config{})
		defer coord.Close()
		fleet, err := StartFleet(ctx, coord, 2, countingExec(&sims))
		if err != nil {
			t.Fatalf("%s: starting fleet: %v", phase, err)
		}
		defer fleet.Stop()
		runner := engine.New(engine.Config{Cache: shared, Exec: coord.Execute})
		matrix := experiments.NewMatrixRunner(experiments.QuickScale, runner)
		table, err := experiments.RunContext(ctx, matrix, experiments.ExpFig13, testWorkloads)
		if err != nil {
			t.Fatalf("%s: fig13: %v", phase, err)
		}
		return table.String(), sims.Load(), coord.Stats()
	}

	cold, coldSims, coldStats := run("cold")
	if coldSims == 0 || coldStats.Dispatched == 0 {
		t.Fatalf("cold run executed %d simulations over %d dispatches, want both > 0", coldSims, coldStats.Dispatched)
	}

	warm, warmSims, warmStats := run("warm")
	if warm != cold {
		t.Errorf("warm table differs from cold table")
	}
	if warmSims != 0 {
		t.Errorf("warm rerun executed %d simulations, want 0 (the shared cache should have served them all)", warmSims)
	}
	if warmStats.Dispatched != 0 {
		t.Errorf("warm rerun dispatched %d jobs, want 0", warmStats.Dispatched)
	}
}

// testJob is a small job for protocol-level tests.
func testJob(workload string) engine.Job {
	opts := experiments.QuickScale.Options()
	return engine.Job{Kind: 0, Workload: workload, Opts: opts}
}

// TestLocalFallback: with no workers registered and a LocalExec configured,
// Execute runs the job in-process and the result matches direct execution.
func TestLocalFallback(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{LocalExec: engine.Execute})
	defer coord.Close()

	job := testJob("ATAX")
	got, err := coord.Execute(ctx, job)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, err := engine.Execute(ctx, job)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	if got != want {
		t.Errorf("local fallback result differs from direct execution")
	}
	if s := coord.Stats(); s.LocalRuns != 1 {
		t.Errorf("LocalRuns = %d, want 1", s.LocalRuns)
	}
}

// TestLastWorkerLeavesThenLocalFallback: a worker that stops cleanly leaves
// the fleet at once, so the next job takes the local fallback without
// waiting out the 30 s default liveness horizon, and its result is the
// in-process one.
func TestLastWorkerLeavesThenLocalFallback(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{LocalExec: engine.Execute})
	defer coord.Close()
	fleet, err := StartFleet(ctx, coord, 1, engine.Execute)
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	for coord.Stats().Workers == 0 {
		if ctx.Err() != nil {
			t.Fatalf("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fleet.Stop()

	job := testJob("ATAX")
	start := time.Now()
	got, err := coord.Execute(ctx, job)
	if err != nil {
		t.Fatalf("Execute after the last worker left: %v", err)
	}
	if elapsed, horizon := time.Since(start), 2*DefaultLease; elapsed > horizon/3 {
		t.Errorf("job took %v after the last worker left, want well under the %v liveness horizon", elapsed, horizon)
	}
	want, err := engine.Execute(ctx, job)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	if got != want {
		t.Errorf("local fallback result differs from direct execution")
	}
	if s := coord.Stats(); s.Workers != 0 || s.WorkersLost != 0 || s.LocalRuns != 1 || s.Dispatched != 0 {
		t.Errorf("Workers=%d WorkersLost=%d LocalRuns=%d Dispatched=%d, want 0, 0, 1, 0", s.Workers, s.WorkersLost, s.LocalRuns, s.Dispatched)
	}
}

// TestUnassignedDrainsOnRegister: a job submitted while no worker is alive
// (and no local fallback exists) waits in the queue, then completes as soon
// as the first worker registers and pulls.
func TestUnassignedDrainsOnRegister(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{})
	defer coord.Close()

	type outcome struct {
		res sim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Execute(ctx, testJob("ATAX"))
		done <- outcome{res, err}
	}()

	// Give the submission time to queue, then bring up a worker.
	time.Sleep(50 * time.Millisecond)
	if s := coord.Stats(); s.Queued != 1 {
		t.Fatalf("Queued = %d before any worker, want 1", s.Queued)
	}
	fleet, err := StartFleet(ctx, coord, 1, engine.Execute)
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	defer fleet.Stop()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("Execute: %v", out.err)
		}
	case <-ctx.Done():
		t.Fatalf("job never completed after worker registration")
	}
}

// TestExecuteCancellation: cancelling the submitting context unblocks
// Execute with ctx.Err() even when no worker will ever serve the job.
func TestExecuteCancellation(t *testing.T) {
	coord := New(Config{})
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, testJob("ATAX"))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Execute did not unblock on cancellation")
	}
}

// TestWorkerCancelledDuringBackoff: a worker whose registration keeps
// failing backs off exponentially, and cancelling it mid-backoff returns
// Run at once rather than after the (by then 1.6 s) sleep, with an error
// that says it was cancelled (fuseworker exits cleanly on exactly that).
func TestWorkerCancelledDuringBackoff(t *testing.T) {
	var attempts atomic.Int32
	sixth := make(chan struct{})
	failing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 6 {
			close(sixth)
		}
		w.WriteHeader(http.StatusInternalServerError)
	})
	w, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: LoopbackClient(failing), ID: "w", Exec: engine.Execute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(ctx) }()
	<-sixth
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("Run returned nil for a worker that never registered")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want an error wrapping context.Canceled", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Run did not return promptly when cancelled during its backoff")
	}
}

// TestPullEndsWhenClientGoes: a long-poll pull runs under its request's
// context, so a worker that hangs up mid-poll frees its handler and its
// parked waiter at once, not when the poll times out.
func TestPullEndsWhenClientGoes(t *testing.T) {
	coord := New(Config{PollTimeout: time.Minute})
	defer coord.Close()
	h := coord.Handler()
	post := func(ctx context.Context, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(context.Background(), pathRegister, `{"worker":"w"}`); rec.Code != http.StatusOK {
		t.Fatalf("register: HTTP %d", rec.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		post(ctx, pathPull, `{"worker":"w"}`)
		close(done)
	}()
	parked := func() int {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.waiters)
	}
	for parked() == 0 {
		select {
		case <-done:
			t.Fatal("the pull answered before parking")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("the pull handler outlived its client")
	}
	if n := parked(); n != 0 {
		t.Errorf("%d waiters still parked after the client left", n)
	}
}

// TestRequestBodyIsOneJSONValue: the coordinator rejects a body with
// anything but whitespace after its JSON value, as a malformed request.
func TestRequestBodyIsOneJSONValue(t *testing.T) {
	coord := New(Config{})
	defer coord.Close()
	for body, want := range map[string]int{
		`{"worker":"w"}` + "\n":         http.StatusOK,
		`{"worker":"w"} {"worker":"x"}`: http.StatusBadRequest,
		`{"worker":"w"} garbage`:        http.StatusBadRequest,
	} {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathRegister, strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("register %q: HTTP %d, want %d", body, rec.Code, want)
		}
	}
}

// TestClosedCoordinator: Close fails pending submissions with ErrClosed and
// rejects new ones.
func TestClosedCoordinator(t *testing.T) {
	coord := New(Config{})
	ctx := context.Background()
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, testJob("ATAX"))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	coord.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending Execute returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending Execute did not unblock on Close")
	}
	if _, err := coord.Execute(ctx, testJob("GEMM")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute after Close returned %v, want ErrClosed", err)
	}
}

// TestLeaseExpiryRedispatch: a worker that pulls a job and goes silent (no
// heartbeat, no result) loses its lease, and the job is re-dispatched to a
// live worker that completes it.
func TestLeaseExpiryRedispatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{Lease: 150 * time.Millisecond, PollTimeout: 100 * time.Millisecond})
	defer coord.Close()
	client := LoopbackClient(coord.Handler())

	// The silent worker registers and pulls by hand, then never acks.
	dead, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: client, ID: "dead", Exec: engine.Execute})
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.register(ctx); err != nil {
		t.Fatalf("registering dead worker: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, testJob("ATAX"))
		done <- err
	}()

	// Pull until the task lands on the silent worker, then sit on it.
	var got *Task
	for got == nil {
		if ctx.Err() != nil {
			t.Fatalf("task never dispatched to the silent worker")
		}
		got, _, err = dead.pull(ctx)
		if err != nil {
			t.Fatalf("pull: %v", err)
		}
	}

	// Now bring up a live worker; the lease expires and the job re-lands.
	fleet, err := StartFleet(ctx, coord, 1, engine.Execute)
	if err != nil {
		t.Fatalf("starting live worker: %v", err)
	}
	defer fleet.Stop()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
	case <-ctx.Done():
		t.Fatalf("job never completed after lease expiry")
	}
	if s := coord.Stats(); s.Redispatched == 0 {
		t.Errorf("Redispatched = 0, want ≥ 1 (lease-expiry path not exercised)")
	}
}

// TestIdleWorkerTakesBacklog: with one worker wedged on a long job and a
// backlog in the queue, an idle second worker takes the queued jobs instead
// of letting the straggler serialise the batch.
func TestIdleWorkerTakesBacklog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{})
	defer coord.Close()
	client := LoopbackClient(coord.Handler())

	gate := make(chan struct{})
	var gated atomic.Int64
	slowExec := func(ctx context.Context, job engine.Job) (sim.Result, error) {
		if gated.Add(1) == 1 {
			<-gate // wedge the first job until the test releases it
		}
		return engine.Execute(ctx, job)
	}
	w1, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: client, ID: "w1", Exec: slowExec})
	if err != nil {
		t.Fatal(err)
	}
	w1done := make(chan struct{})
	w1ctx, w1cancel := context.WithCancel(ctx)
	defer w1cancel()
	go func() { defer close(w1done); _ = w1.Run(w1ctx) }()

	// Submit several distinct jobs; w1 (the only worker) pulls and wedges on
	// one, and the rest wait in the queue.
	workloads := []string{"ATAX", "GEMM", "BICG", "MVT"}
	done := make(chan error, len(workloads))
	for _, wl := range workloads {
		job := testJob(wl)
		go func() {
			_, err := coord.Execute(ctx, job)
			done <- err
		}()
	}
	for coord.Stats().InFlight == 0 {
		if ctx.Err() != nil {
			t.Fatalf("w1 never picked up a job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An idle second worker must take the backlog.
	fleet, err := StartFleet(ctx, coord, 1, engine.Execute)
	if err != nil {
		t.Fatalf("starting idle worker: %v", err)
	}
	defer fleet.Stop()

	for i := 0; i < len(workloads)-1; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("backlog job failed: %v", err)
			}
		case <-ctx.Done():
			t.Fatalf("backlog jobs never completed while w1 was wedged")
		}
	}

	close(gate) // release the wedged job
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wedged job failed: %v", err)
		}
	case <-ctx.Done():
		t.Fatalf("wedged job never completed after release")
	}
	w1cancel()
	<-w1done
}

// TestLastWorkerLostRunsQueueLocally: when the only worker goes silent with
// jobs still queued and a LocalExec fallback is configured, losing the worker
// hands every queued job to the fallback.
func TestLastWorkerLostRunsQueueLocally(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var local atomic.Int64
	coord := New(Config{
		Lease:       100 * time.Millisecond,
		PollTimeout: 50 * time.Millisecond,
		Liveness:    500 * time.Millisecond,
		LocalExec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			local.Add(1)
			return sim.Result{Workload: job.Workload}, nil
		},
	})
	defer coord.Close()

	// The worker registers and then never pulls, heartbeats or reports.
	silent, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: LoopbackClient(coord.Handler()), ID: "silent", Exec: engine.Execute})
	if err != nil {
		t.Fatal(err)
	}
	if err := silent.register(ctx); err != nil {
		t.Fatalf("registering silent worker: %v", err)
	}

	workloads := []string{"ATAX", "GEMM", "BICG"}
	type outcome struct {
		workload string
		res      sim.Result
		err      error
	}
	done := make(chan outcome, len(workloads))
	for _, wl := range workloads {
		go func() {
			res, err := coord.Execute(ctx, testJob(wl))
			done <- outcome{wl, res, err}
		}()
	}
	// Every job must be queued behind the live worker before it is lost.
	for coord.Stats().Queued < len(workloads) {
		if s := coord.Stats(); s.WorkersLost > 0 || ctx.Err() != nil {
			t.Fatalf("worker lost before all jobs queued: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := range workloads {
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("Execute(%s): %v", out.workload, out.err)
			}
			if out.res.Workload != out.workload {
				t.Errorf("Execute(%s) returned the result for %q", out.workload, out.res.Workload)
			}
		case <-ctx.Done():
			t.Fatalf("only %d of %d queued jobs completed after the worker was lost", i, len(workloads))
		}
	}
	s := coord.Stats()
	if s.WorkersLost != 1 || s.Workers != 0 {
		t.Errorf("Workers=%d WorkersLost=%d, want 0 and 1", s.Workers, s.WorkersLost)
	}
	if s.LocalRuns != int64(len(workloads)) || local.Load() != int64(len(workloads)) {
		t.Errorf("LocalRuns=%d, local executions=%d, want %d each", s.LocalRuns, local.Load(), len(workloads))
	}
	if s.Dispatched != 0 {
		t.Errorf("Dispatched = %d, want 0 (the silent worker never pulled)", s.Dispatched)
	}
}

// TestFleetWorkerPanicFailsOnlyItsJob: a panic in a fleet worker's executor
// fails that job with an error naming the panic, and the same worker goes on
// to serve the next job — the panic never reaches the process.
func TestFleetWorkerPanicFailsOnlyItsJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{})
	defer coord.Close()
	fleet, err := StartFleet(ctx, coord, 1, func(_ context.Context, job engine.Job) (sim.Result, error) {
		if job.Workload == "ATAX" {
			panic("worker explosion")
		}
		return sim.Result{Workload: job.Workload}, nil
	})
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	defer fleet.Stop()

	if _, err := coord.Execute(ctx, testJob("ATAX")); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Execute of the panicking job returned %v, want an error containing \"panicked\"", err)
	}
	res, err := coord.Execute(ctx, testJob("GEMM"))
	if err != nil {
		t.Fatalf("next job on the same fleet: %v", err)
	}
	if res.Workload != "GEMM" {
		t.Errorf("next job returned the result for %q, want GEMM", res.Workload)
	}
	if s := coord.Stats(); s.Failed != 1 || s.Completed != 1 || s.Workers != 1 {
		t.Errorf("Failed=%d Completed=%d Workers=%d, want 1, 1, 1", s.Failed, s.Completed, s.Workers)
	}
}

// TestLocalFallbackPanicFailsTask: when the last worker is lost while it
// holds a job, the job is re-queued to the local fallback (requeueLocked →
// runLocal); a LocalExec that panics there fails the task with an error
// instead of crashing the coordinator.
func TestLocalFallbackPanicFailsTask(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := New(Config{
		Lease:       time.Minute, // the worker is lost long before its lease expires
		PollTimeout: 50 * time.Millisecond,
		Liveness:    300 * time.Millisecond,
		LocalExec: func(context.Context, engine.Job) (sim.Result, error) {
			panic("local explosion")
		},
	})
	defer coord.Close()

	// The worker registers, pulls the job and then goes silent.
	silent, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: LoopbackClient(coord.Handler()), ID: "silent", Exec: engine.Execute})
	if err != nil {
		t.Fatal(err)
	}
	if err := silent.register(ctx); err != nil {
		t.Fatalf("registering silent worker: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, testJob("ATAX"))
		done <- err
	}()
	for got := (*Task)(nil); got == nil; {
		if ctx.Err() != nil {
			t.Fatalf("task never dispatched to the silent worker")
		}
		if got, _, err = silent.pull(ctx); err != nil {
			t.Fatalf("pull: %v", err)
		}
	}

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("Execute returned %v, want an error containing \"panicked\"", err)
		}
	case <-ctx.Done():
		t.Fatalf("task never completed after the worker was lost")
	}
	if s := coord.Stats(); s.WorkersLost != 1 || s.LocalRuns != 1 || s.Failed != 1 {
		t.Errorf("WorkersLost=%d LocalRuns=%d Failed=%d, want 1 each", s.WorkersLost, s.LocalRuns, s.Failed)
	}
}

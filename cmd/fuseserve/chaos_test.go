package main

// The chaos suite: the serving stack under deterministic fault injection.
// Every fault decision is a pure function of the seeded fault.Plan, so these
// runs are reproducible — CI runs them under -race with the same seeds and
// must see byte-identical output on every run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/fault"
	"fuse/internal/sim"
	"fuse/internal/store"
)

// chaosPlan is the seeded fault plan the whole suite (and the CI chaos-smoke
// job) runs under: store faults on every operation.
func chaosPlan() fault.Plan {
	return fault.Plan{
		Seed:           42,
		GetFailProb:    0.2,
		PutDropProb:    0.2,
		PutCorruptProb: 0.2,
	}
}

// newChaosServer builds a fuseserve stack with the plan's faults injected
// into the cache path: an LRU-bounded memory tier over a real disk tier,
// both behind a fault.Cache, in front of the real simulator.
func newChaosServer(t *testing.T, plan fault.Plan) (*httptest.Server, *engine.Runner, *fault.Cache) {
	t.Helper()
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(store.NewMemoryLRU(8), disk)
	faultCache := fault.WrapCache(plan, tiered, disk)
	runner := engine.New(engine.Config{Workers: 4, Cache: faultCache})
	app := newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: faultCache,
		health: tiered, timeout: 5 * time.Minute,
	})
	ts := httptest.NewServer(app)
	t.Cleanup(ts.Close)
	return ts, runner, faultCache
}

// fetchFigure renders one figure through the server.
func fetchFigure(t *testing.T, ts *httptest.Server, fig string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/figures/" + fig)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure %s: status %d: %s", fig, resp.StatusCode, body)
	}
	return body
}

func TestChaosFig13ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig13 matrix in -short mode")
	}
	// Clean reference: the same stack with a zero (inject-nothing) plan.
	cleanTS, _, _ := newChaosServer(t, fault.Plan{})
	clean := fetchFigure(t, cleanTS, "13")

	// Chaos run: seeded faults on every store operation.
	chaosTS, _, faultCache := newChaosServer(t, chaosPlan())
	chaos := fetchFigure(t, chaosTS, "13")

	if !bytes.Equal(clean, chaos) {
		t.Errorf("chaos Fig13 differs from the fault-free run:\n--- clean ---\n%s\n--- chaos ---\n%s", clean, chaos)
	}
	// The faults really fired: the run recovered them, it did not dodge them.
	cs := faultCache.Stats()
	if cs.GetsFailed == 0 || cs.PutsDropped == 0 || cs.PutsCorrupt == 0 {
		t.Errorf("store faults did not fire: %+v", cs)
	}
	if store.SchemaVersion != 2 {
		t.Errorf("SchemaVersion = %d, chaos hardening must not bump it", store.SchemaVersion)
	}

	// Reproducibility: an identical chaos run (same plan, fresh process
	// state) renders the identical table with identical fault decisions.
	chaosTS2, _, faultCache2 := newChaosServer(t, chaosPlan())
	chaos2 := fetchFigure(t, chaosTS2, "13")
	if !bytes.Equal(chaos, chaos2) {
		t.Errorf("two chaos runs with the same plan diverged")
	}
	cs2 := faultCache2.Stats()
	if cs2.PutsDropped != cs.PutsDropped || cs2.PutsCorrupt != cs.PutsCorrupt {
		t.Errorf("fault decisions diverged across identical runs:\n%+v\n%+v", cs, cs2)
	}
}

func TestChaosBatchNoLostOrDoubledRequests(t *testing.T) {
	ts, runner, _ := newChaosServer(t, chaosPlan())
	body := `{"jobs":[
		{"kind":"Dy-FUSE","workload":"ATAX"},
		{"kind":"Dy-FUSE","workload":"GEMM"},
		{"kind":"L1-SRAM","workload":"ATAX"},
		{"kind":"L1-SRAM","workload":"GEMM"}]}`
	const clients = 8

	type outcome struct {
		status  int
		results []batchResult
		err     error
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			var br batchResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(data, &br); err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("decoding: %w\n%s", err, data)}
					return
				}
			}
			outcomes[i] = outcome{status: resp.StatusCode, results: br.Results}
		}(i)
	}
	wg.Wait()

	// No request lost: every client got a complete, successful batch.
	var reference []byte
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("client %d: %v", i, o.err)
		}
		if o.status != http.StatusOK {
			t.Fatalf("client %d: status %d", i, o.status)
		}
		if len(o.results) != 4 {
			t.Fatalf("client %d: %d results, want 4", i, len(o.results))
		}
		for j, res := range o.results {
			if res.Error != "" {
				t.Fatalf("client %d job %d failed under chaos: %s", i, j, res.Error)
			}
			if res.Result == nil {
				t.Fatalf("client %d job %d lost its result", i, j)
			}
		}
		enc, err := json.Marshal(o.results)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = enc
		} else if !bytes.Equal(reference, enc) {
			t.Errorf("client %d saw different results than client 0", i)
		}
	}

	// No request doubled: the four distinct jobs executed exactly once each
	// despite eight concurrent clients and injected store faults.
	if got := runner.Executed(); got != 4 {
		t.Errorf("Executed = %d, want 4 (dedup must hold under chaos)", got)
	}
}

func TestGracefulShutdownDrainsInFlightBatch(t *testing.T) {
	// A gated executor keeps one batch in flight across the shutdown signal:
	// Shutdown must wait for it, the client must get its 200, and the server
	// loop must end with ErrServerClosed.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{
		Cache: cache,
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{Workload: job.Workload, Cycles: 1}, nil
		},
	})
	app := newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		timeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: app}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	batchDone := make(chan outcomePair, 1)
	go func() {
		resp, err := http.Post(base+"/v1/batch", "application/json",
			strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`))
		if err != nil {
			batchDone <- outcomePair{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		batchDone <- outcomePair{status: resp.StatusCode, body: body}
	}()

	// Wait until the batch is genuinely executing, then begin the drain.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never started executing")
	}
	app.beginDrain()
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The drain must not kill the in-flight batch: release the gate and the
	// client gets a complete 200.
	time.Sleep(50 * time.Millisecond) // let Shutdown close the listener first
	close(gate)
	select {
	case out := <-batchDone:
		if out.err != nil {
			t.Fatalf("in-flight batch dropped during drain: %v", out.err)
		}
		if out.status != http.StatusOK {
			t.Fatalf("in-flight batch status = %d during drain: %s", out.status, out.body)
		}
		if !strings.Contains(string(out.body), `"ATAX"`) {
			t.Errorf("drained batch body incomplete: %s", out.body)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight batch never completed")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}

	// New work arriving after the drain began is refused, not queued.
	// (The listener is closed, so this exercises the draining flag directly.)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/batch",
		strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"GEMM"}]}`))
	app.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain batch status = %d, want 503", rec.Code)
	}
}

// outcomePair carries one HTTP outcome across a goroutine boundary.
type outcomePair struct {
	status int
	body   []byte
	err    error
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/store"
)

// newClusterServer builds a coordinator-mode server with n in-process
// loopback workers — the httptest analogue of
// `fuseserve -coordinator -localworkers n`.
func newClusterServer(t *testing.T, n int) (*httptest.Server, *cluster.Coordinator) {
	t.Helper()
	cache := store.NewTiered(store.NewMemory())
	coord := cluster.New(cluster.Config{LocalExec: engine.Execute})
	t.Cleanup(coord.Close)
	runner := engine.New(engine.Config{Cache: cache, Exec: coord.Execute})
	ts := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		health: cache, timeout: time.Minute, coord: coord,
	}))
	t.Cleanup(ts.Close)
	if n > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		fleet, err := cluster.StartFleet(ctx, coord, n, engine.Execute)
		if err != nil {
			cancel()
			t.Fatalf("starting fleet: %v", err)
		}
		t.Cleanup(func() { fleet.Stop(); cancel() })
	}
	return ts, coord
}

// getFigure fetches a figure table as text.
func getFigure(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return string(data)
}

// TestCoordinatorModeFigureByteIdentical: the figure endpoint served through
// a coordinator + 2 workers returns exactly the bytes of a single-process
// server, and the jobs really travelled through the fleet.
func TestCoordinatorModeFigureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick-scale simulations")
	}
	const fig = "/v1/figures/13?workloads=ATAX,GEMM"

	// Single-process reference.
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{Cache: cache})
	ref := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		health: cache, timeout: time.Minute,
	}))
	defer ref.Close()
	want := getFigure(t, ref, fig)

	ts, coord := newClusterServer(t, 2)
	got := getFigure(t, ts, fig)
	if got != want {
		t.Errorf("coordinator-mode figure differs from single-process figure\nwant:\n%s\ngot:\n%s", want, got)
	}
	if s := coord.Stats(); s.Dispatched == 0 {
		t.Errorf("no dispatches recorded — figure did not fan out to the fleet")
	}
}

// TestCoordinatorModeBatchFallsBackLocally: with zero workers registered,
// coordinator mode still serves batches (local fallback), so bringing up a
// coordinator never requires a worker to exist first.
func TestCoordinatorModeBatchFallsBackLocally(t *testing.T) {
	ts, coord := newClusterServer(t, 0)
	resp, br := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(br.Results) != 1 || br.Results[0].Error != "" {
		t.Fatalf("unexpected batch response: %+v", br.Results)
	}
	if s := coord.Stats(); s.LocalRuns == 0 {
		t.Errorf("LocalRuns = 0, want ≥ 1 (job should have used the local fallback)")
	}
}

// TestHealthzClusterFields: /healthz carries the fleet snapshot in
// coordinator mode — workers registered, in-flight jobs and re-dispatch
// counters — and omits it otherwise.
func TestHealthzClusterFields(t *testing.T) {
	ts, _ := newClusterServer(t, 2)

	// Run one batch through the fleet so the counters move.
	resp, _ := postBatch(t, ts, `{"jobs":[{"kind":"L1-SRAM","workload":"ATAX"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatalf("healthz has no cluster block in coordinator mode")
	}
	if h.Cluster.Workers != 2 {
		t.Errorf("cluster.workers = %d, want 2", h.Cluster.Workers)
	}
	if h.Cluster.Dispatched == 0 && h.Cluster.LocalRuns == 0 {
		t.Errorf("cluster counters all zero after a batch: %+v", h.Cluster)
	}

	// And the raw JSON carries the documented field names.
	hr2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	raw, _ := io.ReadAll(hr2.Body)
	for _, field := range []string{"workers", "inFlight", "redispatched"} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("healthz JSON missing cluster field %q:\n%s", field, raw)
		}
	}

	// A single-process server has no cluster block.
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{Cache: cache})
	plain := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache, health: cache,
	}))
	defer plain.Close()
	pr, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	var ph healthResponse
	if err := json.NewDecoder(pr.Body).Decode(&ph); err != nil {
		t.Fatal(err)
	}
	if ph.Cluster != nil {
		t.Errorf("single-process healthz unexpectedly has a cluster block")
	}
}

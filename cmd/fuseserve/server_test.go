package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/store"
)

// newTestServer builds a quick-scale server over a fresh memory+disk cache,
// counting real simulator executions.
func newTestServer(t *testing.T, dir string, execs *atomic.Int32) *httptest.Server {
	t.Helper()
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := store.NewTiered(store.NewMemory(), disk)
	runner := engine.New(engine.Config{
		Cache: cache,
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			execs.Add(1)
			return engine.Execute(ctx, job)
		},
	})
	ts := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		health: cache, timeout: time.Minute,
	}))
	t.Cleanup(ts.Close)
	return ts
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatalf("decoding batch response: %v\n%s", err, data)
		}
	}
	return resp, br
}

func TestBatchEndpointRunsAndStoresResults(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	// A trailing newline after the body is not trailing data.
	resp, br := postBatch(t, ts, `{"jobs":[
		{"kind":"L1-SRAM","workload":"ATAX"},
		{"kind":"Dy-FUSE","workload":"ATAX"}
	]}
`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	for i, res := range br.Results {
		if res.Error != "" {
			t.Fatalf("job %d failed: %s", i, res.Error)
		}
		if res.Result == nil || res.Result.Cycles == 0 {
			t.Errorf("job %d: empty result", i)
		}
		if !store.ValidKey(res.Key) {
			t.Errorf("job %d: bad store key %q", i, res.Key)
		}
	}
	if execs.Load() != 2 {
		t.Errorf("executed %d simulations, want 2", execs.Load())
	}

	// The batch's results are immediately fetchable by key.
	keyResp, err := http.Get(ts.URL + "/v1/result/" + br.Results[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	defer keyResp.Body.Close()
	if keyResp.StatusCode != http.StatusOK {
		t.Fatalf("GET result status = %d", keyResp.StatusCode)
	}
	var fetched sim.Result
	if err := json.NewDecoder(keyResp.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.Cycles != br.Results[0].Result.Cycles || fetched.Workload != "ATAX" {
		t.Errorf("fetched result does not match the batch result")
	}

	// Re-submitting the batch is served without simulating.
	resp2, br2 := postBatch(t, ts, `{"jobs":[
		{"kind":"L1-SRAM","workload":"ATAX"},
		{"kind":"Dy-FUSE","workload":"ATAX"}
	]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", resp2.StatusCode)
	}
	if execs.Load() != 2 {
		t.Errorf("warm batch re-simulated: %d executions", execs.Load())
	}
	if br2.Results[0].Result.IPC != br.Results[0].Result.IPC {
		t.Errorf("warm result differs from cold")
	}
}

func TestBatchValidation(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"jobs":`},
		{"empty batch", `{"jobs":[]}`},
		{"unknown kind", `{"jobs":[{"kind":"NVRAM","workload":"ATAX"}]}`},
		{"unknown workload", `{"jobs":[{"kind":"Dy-FUSE","workload":"nope"}]}`},
		{"unknown field", `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}],"bogus":1}`},
		{"removed simWorkers option", `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}],"options":{"simWorkers":2}}`},
		{"trailing data", `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]} {"jobs":[]} garbage`},
	}
	for _, tc := range cases {
		resp, _ := postBatch(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if execs.Load() != 0 {
		t.Errorf("rejected batches must not simulate")
	}
}

func TestResultEndpointKeyHandling(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	resp, err := http.Get(ts.URL + "/v1/result/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/result/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status = %d, want 404", resp.StatusCode)
	}
}

func TestFigureEndpointServesFig13(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	resp, err := http.Get(ts.URL + "/v1/figures/13?workloads=ATAX,pathf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("Figure 13")) || !bytes.Contains(body, []byte("ATAX")) {
		t.Errorf("figure table missing expected content:\n%s", body)
	}
	cold := execs.Load()
	if cold == 0 {
		t.Fatalf("cold figure should simulate")
	}

	// Figure 14 shares figure 13's matrix: serving it is free.
	resp2, err := http.Get(ts.URL + "/v1/figures/14?workloads=ATAX,pathf")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fig14 status = %d", resp2.StatusCode)
	}
	if execs.Load() != cold {
		t.Errorf("figure 14 re-simulated the shared matrix (%d -> %d executions)", cold, execs.Load())
	}

	// Unknown figures 404.
	resp3, err := http.Get(ts.URL + "/v1/figures/12")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("figure 12: status = %d, want 404", resp3.StatusCode)
	}

	// Unknown workloads are a client error, not a 500.
	resp4, err := http.Get(ts.URL + "/v1/figures/13?workloads=ATAXX")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus workload: status = %d, want 400", resp4.StatusCode)
	}
}

func TestServerWarmAcrossProcessesViaSharedStore(t *testing.T) {
	// Two server "processes" sharing one store directory: the second serves
	// the figure without a single simulation.
	dir := t.TempDir()

	var cold atomic.Int32
	ts1 := newTestServer(t, dir, &cold)
	resp, err := http.Get(ts1.URL + "/v1/figures/13?workloads=ATAX")
	if err != nil {
		t.Fatal(err)
	}
	table1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cold.Load() == 0 {
		t.Fatalf("cold server should simulate")
	}
	ts1.Close()

	var warm atomic.Int32
	ts2 := newTestServer(t, dir, &warm)
	resp2, err := http.Get(ts2.URL + "/v1/figures/13?workloads=ATAX")
	if err != nil {
		t.Fatal(err)
	}
	table2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if warm.Load() != 0 {
		t.Errorf("warm server executed %d simulations, want 0", warm.Load())
	}
	if !bytes.Equal(table1, table2) {
		t.Errorf("warm figure differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", table1, table2)
	}
}

func TestPerRequestTimeout(t *testing.T) {
	// A stalling executor plus a tiny timeout: the batch must come back as
	// 504, not hang.
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{
		Cache: cache,
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		},
	})
	ts := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		health: cache, timeout: 50 * time.Millisecond,
	}))
	defer ts.Close()

	resp, _ := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
}

// TestClientDisconnectCancelsBatch pins that a batch runs under the
// request's context in both branches of requestContext: with no timeout and
// with one longer than the test, a client that goes away cancels the
// simulations it started.
func TestClientDisconnectCancelsBatch(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Hour} {
		t.Run(timeout.String(), func(t *testing.T) {
			started, cancelled := make(chan struct{}, 1), make(chan error, 1)
			unblock := make(chan struct{})
			cache := store.NewTiered(store.NewMemory())
			runner := engine.New(engine.Config{
				Cache: cache,
				Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
					started <- struct{}{}
					select {
					case <-ctx.Done():
						cancelled <- ctx.Err()
						return sim.Result{}, ctx.Err()
					case <-unblock:
						return sim.Result{}, nil
					}
				},
			})
			ts := httptest.NewServer(newServer(serverConfig{
				scale: experiments.QuickScale, runner: runner, results: cache,
				health: cache, timeout: timeout,
			}))
			defer ts.Close()
			defer close(unblock)

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch",
				strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			<-started
			cancel()
			select {
			case err := <-cancelled:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("the simulation saw %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("the client disconnected but its simulation was not cancelled")
			}
		})
	}
}

func TestBatchBackendOption(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	resp, br := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}],"options":{"backend":"STT-MRAM"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if br.Results[0].Error != "" {
		t.Fatalf("job failed: %s", br.Results[0].Error)
	}
	if got := br.Results[0].Result.MemBackend; got != "STT-MRAM" {
		t.Errorf("MemBackend = %q, want STT-MRAM", got)
	}
	if !store.ValidKey(br.Results[0].Key) {
		t.Errorf("backend-override job should still produce a store key")
	}

	// The same job on the default backend is a different simulation.
	_, brDefault := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`)
	if brDefault.Results[0].Key == br.Results[0].Key {
		t.Errorf("backend must be part of the store key")
	}

	// An unknown backend is rejected before any simulation runs.
	before := execs.Load()
	respBad, _ := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}],"options":{"backend":"PCM-9000"}}`)
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown backend status = %d, want 400", respBad.StatusCode)
	}
	if execs.Load() != before {
		t.Errorf("rejected batch must not simulate")
	}
}

func TestWorkloadsEndpointListsRegistry(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Workloads []workloadInfo `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workloads) < 21 {
		t.Fatalf("expected at least the 21 builtin workloads, got %d", len(body.Workloads))
	}
	builtins := 0
	byName := map[string]workloadInfo{}
	for _, w := range body.Workloads {
		byName[w.Name] = w
		if w.Builtin {
			builtins++
		}
	}
	if builtins != 21 {
		t.Errorf("expected exactly 21 builtin entries, got %d", builtins)
	}
	atax, ok := byName["ATAX"]
	if !ok || atax.Kind != "profile" || !atax.Builtin || atax.APKI != 64 {
		t.Errorf("ATAX entry wrong: %+v", atax)
	}
}

func TestBatchInlineWorkloadDefinitions(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	// Define a profile and a phased workload inline and run them in the same
	// request.
	body := `{
		"workloads": {
			"profiles": [{"name": "srv-ml", "suite": "ML", "apki": 120,
				"mix": {"wm": 0.35, "readIntensive": 0.25, "worm": 0.3, "woro": 0.1},
				"workingSetBlocks": 420, "irregular": 0.4, "wormReuse": 3}],
			"phased": [{"name": "srv-train", "phases": [
				{"profile": "srv-ml", "instructions": 500}, {"profile": "GEMM"}]}]
		},
		"jobs": [{"kind": "Dy-FUSE", "workload": "srv-ml"},
		         {"kind": "Dy-FUSE", "workload": "srv-train"}]
	}`
	resp, br := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for i, r := range br.Results {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("job %d failed: %s", i, r.Error)
		}
		if r.Key == "" || r.Result.Instructions == 0 {
			t.Errorf("job %d: missing key or empty result", i)
		}
	}
	if br.Results[0].Result.Workload != "srv-ml" || br.Results[1].Result.Workload != "srv-train" {
		t.Errorf("inline workloads should run under their own names: %+v", br.Results)
	}

	// The inline definitions persist in the registry: listed, and re-usable
	// without re-defining. Identical re-definition is accepted.
	resp2, br2 := postBatch(t, ts, body)
	if resp2.StatusCode != http.StatusOK || br2.Results[0].Error != "" {
		t.Fatalf("identical re-definition should succeed: %d", resp2.StatusCode)
	}
	if br2.Results[0].Key != br.Results[0].Key {
		t.Errorf("re-run of the same inline workload must hit the same store key")
	}

	// Conflicting redefinition is a 400.
	conflict := strings.Replace(body, `"apki": 120`, `"apki": 7`, 1)
	resp3, _ := postBatch(t, ts, conflict)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("conflicting redefinition should be a 400, got %d", resp3.StatusCode)
	}

	// Referencing an undefined workload is still a 400 with the registry's
	// error message.
	resp4, _ := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"srv-undefined"}]}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload should be a 400, got %d", resp4.StatusCode)
	}

	// Invalid inline profiles are rejected before any job runs — and the
	// rejection is atomic: valid entries earlier in the same block must not
	// leak into the registry (a 400 means no server state changed).
	bad := `{"workloads": {"profiles": [
		{"name": "srv-leak", "apki": 40,
		 "mix": {"wm": 0.25, "readIntensive": 0.25, "worm": 0.25, "woro": 0.25},
		 "workingSetBlocks": 100, "irregular": 0.1, "wormReuse": 2},
		{"name": "srv-bad", "apki": 0,
		 "mix": {"wm": 1}, "workingSetBlocks": 1, "wormReuse": 1}]},
		"jobs": [{"kind": "Dy-FUSE", "workload": "srv-bad"}]}`
	resp5, _ := postBatch(t, ts, bad)
	if resp5.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid inline profile should be a 400, got %d", resp5.StatusCode)
	}
	resp6, _ := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"srv-leak"}]}`)
	if resp6.StatusCode != http.StatusBadRequest {
		t.Errorf("rejected definition block must not register its valid entries, got %d", resp6.StatusCode)
	}
}

// getJSON fetches a URL and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

func TestHealthzAndReadyzHealthy(t *testing.T) {
	var execs atomic.Int32
	ts := newTestServer(t, t.TempDir(), &execs)

	var h healthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", resp.StatusCode)
	}
	if h.Status != "ok" || h.Draining || h.InFlight != 0 {
		t.Errorf("healthy server reported %+v", h)
	}
	if len(h.Store) != 2 || h.Store[0].Tier != "memory" || h.Store[1].Tier != "disk" {
		t.Errorf("store tiers = %+v, want [memory disk]", h.Store)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz status = %d, want 200", resp.StatusCode)
	}
}

func TestReadyzReportsDegradedDiskTier(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	ts := newTestServer(t, dir, &execs)

	// Replace the store directory with a regular file: the rescan every
	// disk-tier miss makes fails with a non-ENOENT error, and
	// DegradedThreshold consecutive failures trip the disk tier.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	for i := 0; i < store.DegradedThreshold; i++ {
		if resp := getJSON(t, ts.URL+"/v1/result/"+key, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unreadable store should read as a miss, got %d", resp.StatusCode)
		}
	}

	var h healthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz must stay 200 while degraded, got %d", resp.StatusCode)
	}
	if h.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded: %+v", h.Status, h)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz status = %d, want 503 while the disk tier is tripped", resp.StatusCode)
	}

	// Once the directory is back, a successful store write recovers the
	// tier and readiness.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/v1/figures/13?workloads=ATAX", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("figure request failed: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/readyz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz should recover after successful I/O, got %d (%+v)", resp.StatusCode, h)
	}
	// The disk tier counts the records the figure request wrote.
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	if len(h.Store) != 2 || h.Store[1].Tier != "disk" || h.Store[1].Entries == 0 {
		t.Errorf("healthz store tiers = %+v, want a disk tier with entries", h.Store)
	}
}

func TestAdmissionControlBoundsInflightBatches(t *testing.T) {
	// A stalling executor holds the first batch in flight; with maxInflight
	// 1, the second must be refused with 503 + Retry-After.
	gate := make(chan struct{})
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{
		Cache: cache,
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{Workload: job.Workload}, nil
		},
	})
	ts := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		timeout: time.Minute, maxInflight: 1,
	}))
	defer ts.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()

	// Wait until the first batch is admitted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h healthResponse
		getJSON(t, ts.URL+"/healthz", &h)
		if h.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first batch never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"GEMM"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-capacity batch status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 must carry a Retry-After header")
	}

	// Releasing the gate lets the admitted batch finish normally.
	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted batch status = %d, want 200", code)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{Cache: cache})
	app := newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		health: store.NewTiered(store.NewMemory()), timeout: time.Minute,
	})
	ts := httptest.NewServer(app)
	defer ts.Close()

	app.beginDrain()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining 503 must carry Retry-After")
	}
	var h healthResponse
	if r := getJSON(t, ts.URL+"/readyz", &h); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", r.StatusCode)
	}
	if h.Status != "draining" {
		t.Errorf("readyz status = %q, want draining", h.Status)
	}
	// Liveness and result reads stay available during the drain.
	if r := getJSON(t, ts.URL+"/healthz", nil); r.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", r.StatusCode)
	}
}

func TestPanicMiddlewareReturnsStructured500(t *testing.T) {
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{Cache: cache})
	app := newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache,
		timeout: time.Minute,
	})
	// Route a deliberately panicking handler through the middleware.
	app.mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	ts := httptest.NewServer(app)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "handler exploded") {
		t.Errorf("want a structured JSON error, got %s", body)
	}
	// The server survived and reports the panic.
	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.HandlerPanics != 1 {
		t.Errorf("HandlerPanics = %d, want 1", h.HandlerPanics)
	}
	if r := getJSON(t, ts.URL+"/v1/workloads", nil); r.StatusCode != http.StatusOK {
		t.Errorf("server unusable after a handler panic: %d", r.StatusCode)
	}
}

func TestPanickingJobErrorHidesStack(t *testing.T) {
	// A panicking simulation fails only its own job, is counted, and its
	// error tells the client the panic value without the server's stack.
	cache := store.NewTiered(store.NewMemory())
	runner := engine.New(engine.Config{
		Cache: cache,
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			if job.Workload == "GEMM" {
				panic("simulated explosion")
			}
			return engine.Execute(ctx, job)
		},
	})
	ts := httptest.NewServer(newServer(serverConfig{
		scale: experiments.QuickScale, runner: runner, results: cache, timeout: time.Minute,
	}))
	defer ts.Close()

	resp, br := postBatch(t, ts, `{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"},{"kind":"Dy-FUSE","workload":"GEMM"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if br.Results[0].Error != "" || br.Results[0].Key == "" {
		t.Errorf("healthy job failed: %+v", br.Results[0])
	}
	msg := br.Results[1].Error
	if !strings.Contains(msg, "simulated explosion") || strings.Contains(msg, "goroutine ") || strings.Contains(msg, ".go:") {
		t.Errorf("panicking job's error = %q, want the panic value without a stack", msg)
	}
	if runner.Panics() != 1 || br.Panics != 1 {
		t.Errorf("Panics = %d (response %d), want 1", runner.Panics(), br.Panics)
	}
}

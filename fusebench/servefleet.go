package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
)

// serve-fleet: the real fuseserve binary as a fleet coordinator with two
// in-process workers, driven over HTTP by two closed-loop clients with a
// seeded, fixed request sequence per pass:
//
//	cold      a 4-job batch at a fresh seed: simulate, dispatch, disk put
//	hot       an earlier cold batch re-posted: answered by Runner dedup
//	diskwarm  a 4-job batch a set-up fuseserve process wrote: disk hits
//	get       GET /v1/result/{key} of an earlier key: a memory-tier hit, or
//	          a disk read once the key was LRU-evicted (-memcap is below
//	          the run's distinct-key count)
//
// Most of the time is HTTP/JSON, dedup, store and cluster dispatch; little
// is simulation.
const (
	serveClients    = 2
	serveSteps      = 20  // per client per pass; each step is cold, hot, 2 gets, and diskwarm on even steps
	serveMinPasses  = 3   // so each request class has at least 100 samples
	serveMaxPasses  = 14  // the disk-warm pool is pre-filled for this many passes
	serveMemCap     = 256 // memory-tier entries: below the distinct keys of one run
	serveJobs       = 4   // jobs per batch
	diskWarmIPW     = 10  // disk-warm points are tiny: the set-up only has to write them
	diskWarmSMs     = 1
	serveDrainLimit = 30 * time.Second
)

var serveKinds = []string{"L1-SRAM", "FA-SRAM", "By-NVM", "Hybrid", "Base-FUSE", "FA-FUSE", "Dy-FUSE"}

// serveProc is one running fuseserve.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer // stdout and stderr; read only after the process has exited
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServe starts fuseserve with args and waits until /readyz answers 200.
func startServe(ctx context.Context, bin string, args ...string) (*serveProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &serveProc{base: "http://" + addr, logs: &bytes.Buffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = p.logs, p.logs
	// The server must not outlive the benchmark, however the benchmark ends.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _, err := httpDo(ctx, http.MethodGet, p.base+"/readyz", nil); err == nil && code == http.StatusOK {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("fuseserve exited during start-up: %v\n%s", p.err, p.logs)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("fuseserve not ready after 30s\n%s", p.logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained cleanly" log line.
func (p *serveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling fuseserve: %w", err)
	}
	select {
	case <-p.done:
	case <-time.After(serveDrainLimit):
		p.kill()
		return fmt.Errorf("fuseserve did not exit within %s of SIGTERM", serveDrainLimit)
	}
	if p.err != nil {
		return fmt.Errorf("fuseserve exit: %v\n%s", p.err, p.logs)
	}
	if !strings.Contains(p.logs.String(), "drained cleanly") {
		return fmt.Errorf("fuseserve exited without draining cleanly\n%s", p.logs)
	}
	return nil
}

// kill stops the process without ceremony and waits for it.
func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// cpu is the server's user+system CPU time so far, from /proc.
func (p *serveProc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks (100 per second).
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 2},
}

// httpDo sends one request and returns the status and the whole body.
func httpDo(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Executed  int `json:"executed"`
	StoreHits int `json:"storeHits"`
	Cluster   *struct {
		Workers      int   `json:"workers"`
		Dispatched   int64 `json:"dispatched"`
		Redispatched int64 `json:"redispatched"`
		Stolen       int64 `json:"stolen"`
		LocalRuns    int64 `json:"localRuns"`
	} `json:"cluster"`
}

func (p *serveProc) health(ctx context.Context) (health, error) {
	var h health
	code, body, err := httpDo(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/healthz: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(body, &h)
	}
	return h, err
}

// batch is one POST /v1/batch request of the sequence.
type batch struct {
	Jobs    []batchJob   `json:"jobs"`
	Options batchOptions `json:"options"`
}

type batchJob struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
}

type batchOptions struct {
	InstructionsPerWarp uint64 `json:"instructionsPerWarp,omitempty"`
	SMs                 int    `json:"sms,omitempty"`
	Seed                uint64 `json:"seed"`
}

type batchReply struct {
	Results []struct {
		Key    string      `json:"key"`
		Result *sim.Result `json:"result"`
		Error  string      `json:"error"`
	} `json:"results"`
}

// opts is the simulation options the server applies to this batch
// (-scale quick plus the batch's overrides).
func (b batch) opts() sim.Options {
	o := experiments.QuickScale.Options()
	o.Seed = b.Options.Seed
	if b.Options.InstructionsPerWarp > 0 {
		o.InstructionsPerWarp = b.Options.InstructionsPerWarp
	}
	if b.Options.SMs > 0 {
		o.SMOverride = b.Options.SMs
	}
	return o
}

// servePoint is point i of the 7-kind x 21-workload grid.
func servePoint(i int) batchJob {
	names := experiments.AllWorkloads()
	return batchJob{Kind: serveKinds[i%len(serveKinds)], Workload: names[i/len(serveKinds)%len(names)]}
}

// newBatch draws serveJobs distinct points.
func newBatch(rng *rand.Rand, seed uint64) batch {
	b := batch{Options: batchOptions{Seed: seed}}
	for _, i := range rng.Perm(len(serveKinds) * len(experiments.AllWorkloads()))[:serveJobs] {
		b.Jobs = append(b.Jobs, servePoint(i))
	}
	return b
}

// seedFor gives every generated batch its own simulation seed: class 1 is
// cold, class 2 disk-warm.
func (r *run) seedFor(class, pass, client, i int) uint64 {
	return r.seed*1_000_000 + uint64(class*100_000+pass*1000+client*500+i) + 1
}

// diskWarmBatch is pool batch (pass, client, k); the set-up writes exactly
// these, so the same call later names the same points.
func (r *run) diskWarmBatch(pass, client, k int) batch {
	rng := rand.New(rand.NewPCG(r.seed, uint64(2_000_000+pass*1000+client*500+k)))
	b := newBatch(rng, r.seedFor(2, pass, client, k))
	b.Options.InstructionsPerWarp, b.Options.SMs = diskWarmIPW, diskWarmSMs
	return b
}

// op is one request of a client's sequence.
type serveOp struct {
	class string // cold, hot, diskwarm, get
	batch batch
	ref   int // hot: index of the cold batch to re-post; get: index into the keys seen
}

// clientOps builds client c's fixed request sequence for one pass. The
// pass's cold batches walk one seeded permutation of the whole grid, so
// every pass simulates each point about once whatever the seed, and
// consecutive grid positions keep the points of a batch distinct.
func (r *run) clientOps(pass, client int) []serveOp {
	grid := rand.New(rand.NewPCG(r.seed, uint64(pass))).Perm(len(serveKinds) * len(experiments.AllWorkloads()))
	rng := rand.New(rand.NewPCG(r.seed, uint64(pass*1000+client)))
	var ops []serveOp
	k := 0
	for i := range serveSteps {
		cold := batch{Options: batchOptions{Seed: r.seedFor(1, pass, client, i)}}
		first := (i*serveClients + client) * serveJobs
		for j := range serveJobs {
			cold.Jobs = append(cold.Jobs, servePoint(grid[(first+j)%len(grid)]))
		}
		ops = append(ops, serveOp{class: "cold", batch: cold})
		if i%2 == 0 {
			ops = append(ops, serveOp{class: "diskwarm", batch: r.diskWarmBatch(pass, client, k)})
			k++
		}
		ops = append(ops, serveOp{class: "hot", ref: rng.IntN(i + 1)})
		ops = append(ops, serveOp{class: "get", ref: rng.Int()}, serveOp{class: "get", ref: rng.Int()})
	}
	return ops
}

// clientLog is what one client saw in one pass.
type clientLog struct {
	ms       map[string][]float64 // latency by class
	bytes    []float64
	refused  int
	cold     []batch
	coldRes  [][]sim.Result
	keys     []string
	results  map[string]sim.Result
	cycles   float64
	failures []error
	wrongs   []string
}

// drive runs one client's sequence, closed loop: each request is sent when
// the previous one has been answered.
func (r *run) drive(ctx context.Context, srv *serveProc, ops []serveOp, known map[string]sim.Result, tr *tracer, passID int) *clientLog {
	lg := &clientLog{ms: map[string][]float64{}, results: map[string]sim.Result{}}
	for _, op := range ops {
		var (
			code int
			body []byte
			err  error
			want []sim.Result
			b    batch
		)
		id := tr.start("serve."+op.class, passID, "")
		t0 := time.Now()
		switch op.class {
		case "get":
			if len(lg.keys) == 0 {
				err = errors.New("get: no earlier key")
				break
			}
			key := lg.keys[op.ref%len(lg.keys)]
			code, body, err = httpDo(ctx, http.MethodGet, srv.base+"/v1/result/"+key, nil)
			want = []sim.Result{lg.results[key]}
		default:
			b = op.batch
			if op.class == "hot" {
				if op.ref >= len(lg.cold) {
					err = errors.New("hot: its cold batch failed")
					break
				}
				b = lg.cold[op.ref]
				want = lg.coldRes[op.ref]
			}
			payload, _ := json.Marshal(b)
			code, body, err = httpDo(ctx, http.MethodPost, srv.base+"/v1/batch", payload)
		}
		elapsed := time.Since(t0)
		tr.end(id, err == nil && code == http.StatusOK, uint64(len(body)))
		if err == nil && code != http.StatusOK {
			if code == http.StatusServiceUnavailable {
				lg.refused++
			}
			err = fmt.Errorf("%s: status %d: %s", op.class, code, body)
		}
		if err != nil {
			lg.failures = append(lg.failures, err)
			continue
		}
		lg.ms[op.class] = append(lg.ms[op.class], float64(elapsed)/1e6)
		lg.bytes = append(lg.bytes, float64(len(body)))
		lg.failures = append(lg.failures, nil)

		if op.class == "get" {
			var got sim.Result
			if err := json.Unmarshal(body, &got); err != nil || !reflect.DeepEqual(got, want[0]) {
				lg.wrongs = append(lg.wrongs, "get: result differs from the batch that produced it")
			}
			continue
		}
		var reply batchReply
		if err := json.Unmarshal(body, &reply); err != nil || len(reply.Results) != len(b.Jobs) {
			lg.wrongs = append(lg.wrongs, fmt.Sprintf("%s: malformed reply", op.class))
			continue
		}
		var got []sim.Result
		for i, res := range reply.Results {
			if res.Error != "" || res.Result == nil {
				lg.wrongs = append(lg.wrongs, fmt.Sprintf("%s: job failed: %s", op.class, res.Error))
				continue
			}
			kind, _ := config.ParseL1DKind(b.Jobs[i].Kind)
			if err := checkInvariants(*res.Result, config.FermiGPU(config.NewL1DConfig(kind)), b.opts()); err != nil {
				lg.wrongs = append(lg.wrongs, err.Error())
			}
			if k, ok := known[res.Key]; ok != (op.class == "diskwarm") || ok && !reflect.DeepEqual(k, *res.Result) {
				lg.wrongs = append(lg.wrongs, op.class+": result is not the set-up's pre-filled one")
			}
			if want != nil && (i >= len(want) || !reflect.DeepEqual(want[i], *res.Result)) {
				lg.wrongs = append(lg.wrongs, "hot: result differs from the cold reply")
			}
			lg.keys = append(lg.keys, res.Key)
			lg.results[res.Key] = *res.Result
			got = append(got, *res.Result)
			if op.class == "cold" {
				lg.cycles += float64(res.Result.Cycles)
			}
		}
		if op.class == "cold" {
			lg.cold = append(lg.cold, b)
			lg.coldRes = append(lg.coldRes, got)
		}
	}
	return lg
}

// serveSetup pre-fills a fresh store directory through a set-up fuseserve
// process, then starts the measured coordinator over it. It returns the
// coordinator and the pre-filled results by key.
func (r *run) serveSetup(ctx context.Context, bin, dir string) (*serveProc, map[string]sim.Result, error) {
	pre, err := startServe(ctx, bin, "-scale", "quick", "-store", dir)
	if err != nil {
		return nil, nil, err
	}
	known, err := r.prefill(ctx, pre)
	if err = errors.Join(err, pre.stop()); err != nil {
		return nil, nil, err
	}
	srv, err := startServe(ctx, bin, "-scale", "quick", "-coordinator", "-localworkers", strconv.Itoa(serveClients),
		"-store", dir, "-memcap", strconv.Itoa(serveMemCap))
	if err != nil {
		return nil, nil, err
	}
	// Jobs arriving before the in-process workers register would run on
	// the coordinator's local fallback; wait for the fleet.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h, err := srv.health(ctx)
		if err == nil && h.Cluster != nil && h.Cluster.Workers == serveClients {
			return srv, known, nil
		}
		if time.Now().After(deadline) {
			srv.kill()
			return nil, nil, fmt.Errorf("fleet workers did not register: %v", err)
		}
	}
}

// prefill posts every disk-warm pool batch to the set-up server, which
// simulates it and writes it to the store directory.
func (r *run) prefill(ctx context.Context, pre *serveProc) (map[string]sim.Result, error) {
	known := map[string]sim.Result{}
	for pass := range serveMaxPasses {
		for c := range serveClients {
			for k := range serveSteps / 2 {
				payload, _ := json.Marshal(r.diskWarmBatch(pass, c, k))
				code, body, err := httpDo(ctx, http.MethodPost, pre.base+"/v1/batch", payload)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %s", code, body)
				}
				var reply batchReply
				if err == nil {
					err = json.Unmarshal(body, &reply)
				}
				if err != nil {
					return nil, fmt.Errorf("pre-fill: %w", err)
				}
				for _, res := range reply.Results {
					if res.Result == nil {
						return nil, fmt.Errorf("pre-fill: job failed: %s", res.Error)
					}
					known[res.Key] = *res.Result
				}
			}
		}
	}
	return known, nil
}

// recordServeLayers records one pass's serving, engine, store and cluster
// samples: client latencies by class, response sizes, refusals, CPU time of
// server and clients, and /healthz counter deltas.
func (r *run) recordServeLayers(logs []*clientLog, h0, h1 health, serverCPU, clientCPU time.Duration) {
	var bytes []float64
	refused := 0
	for _, lg := range logs {
		for class, ms := range lg.ms {
			for _, v := range ms {
				r.record("serve."+class+"_ms", v)
			}
		}
		bytes = append(bytes, lg.bytes...)
		refused += lg.refused
	}
	executed := float64(h1.Executed - h0.Executed)
	hits := float64(h1.StoreHits - h0.StoreHits)
	r.record("serve.response_kb_mean", mean(bytes)/1024)
	r.record("serve.refused", float64(refused))
	r.record("serve.server_cpu_s", serverCPU.Seconds())
	r.record("serve.client_cpu_s", clientCPU.Seconds())
	r.record("engine.executed", executed)
	r.record("engine.store_hits", hits)
	r.record("store.hit_ratio", ratio(hits, hits+executed))
	if h0.Cluster != nil && h1.Cluster != nil {
		dispatched := float64(h1.Cluster.Dispatched - h0.Cluster.Dispatched)
		stolen := float64(h1.Cluster.Stolen - h0.Cluster.Stolen)
		r.record("cluster.dispatched", dispatched)
		r.record("cluster.stolen", stolen)
		r.record("cluster.steal_frac", ratio(stolen, dispatched))
		r.record("cluster.redispatched", float64(h1.Cluster.Redispatched-h0.Cluster.Redispatched))
		r.record("cluster.local_runs", float64(h1.Cluster.LocalRuns-h0.Cluster.LocalRuns))
	}
}

func runServeFleet(ctx context.Context, r *run) error {
	bin, err := filepath.Abs(filepath.Join(".bench_build", "fuseserve"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("fuseserve binary: %w (run.sh builds it)", err)
	}
	var (
		srv   *serveProc
		known map[string]sim.Result
		dir   string
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	if err := r.setup(5, func(last bool) error {
		d, err := os.MkdirTemp(r.work, "store-")
		if err != nil {
			return err
		}
		s, k, err := r.serveSetup(ctx, bin, d)
		if err != nil || !last {
			if s != nil {
				err = errors.Join(err, s.stop())
			}
			os.RemoveAll(d)
			return err
		}
		srv, known, dir = s, k, d
		return nil
	}); err != nil {
		return err
	}

	var cycles []float64 // simulated by each pass's cold batches, by pass
	// One cold batch per client is re-simulated in process after the passes.
	type sample struct {
		batch   batch
		results map[string]sim.Result // what the client was served, by store key
	}
	var sampled []sample
	walls, err := r.passes(serveMinPasses, serveMaxPasses, func(pass int) (time.Duration, error) {
		h0, err := srv.health(ctx)
		if err != nil {
			return 0, err
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return 0, err
		}
		self0 := selfCPU()
		passID := r.tr.start("pass", 0, "serve-fleet")

		logs := make([]*clientLog, serveClients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range serveClients {
			ops := r.clientOps(pass, c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				logs[c] = r.drive(ctx, srv, ops, known, r.tr, passID)
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		r.tr.end(passID, true, 0)

		cpu1, err := srv.cpu()
		if err != nil {
			return 0, err
		}
		self1 := selfCPU()
		h1, err := srv.health(ctx)
		if err != nil {
			return 0, err
		}

		var total float64
		for _, lg := range logs {
			for _, err := range lg.failures {
				r.op(err)
			}
			for _, w := range lg.wrongs {
				r.wrong("%s", w)
			}
			total += lg.cycles
			if pass == 0 && len(lg.cold) > 0 {
				sampled = append(sampled, sample{lg.cold[0], lg.results})
			}
		}
		cycles = append(cycles, total)
		r.record("sim_cycles_per_s_raw", total/wall.Seconds())
		// Every pass executes the cold points and reads the disk-warm ones
		// from the store, exactly.
		if d := h1.Executed - h0.Executed; d != serveClients*serveSteps*serveJobs {
			r.wrong("pass %d executed %d simulations, want %d", pass, d, serveClients*serveSteps*serveJobs)
		}
		if d := h1.StoreHits - h0.StoreHits; d != serveClients*serveSteps/2*serveJobs {
			r.wrong("pass %d had %d store hits, want %d", pass, d, serveClients*serveSteps/2*serveJobs)
		}
		// Traced runs take their per-layer samples from the traced passes;
		// untraced runs record them for the summary only.
		if r.tr != nil || !r.traced {
			r.recordServeLayers(logs, h0, h1, cpu1-cpu0, self1-self0)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}

	// Served results must equal the in-process result for the same store
	// key.
	for _, smp := range sampled {
		for _, bj := range smp.batch.Jobs {
			kind, _ := config.ParseL1DKind(bj.Kind)
			job := engine.Job{Kind: kind, Workload: bj.Workload, Opts: smp.batch.opts()}
			key, err := engine.StoreKey(job)
			res, execErr := engine.Execute(ctx, job)
			err = errors.Join(err, execErr)
			r.op(err)
			if served, ok := smp.results[key]; err == nil && (!ok || !reflect.DeepEqual(res, served)) {
				r.wrong("%s: served result for key %s differs from the in-process result", job, key)
			}
		}
	}

	if r.e2e["peak_rss_mb"], err = vmHWM(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return err
	}
	err = srv.stop()
	srv = nil
	r.op(err)
	r.e2e["wall_s"] = median(walls)
	rates := make([]float64, len(cycles))
	for i, c := range cycles {
		rates[i] = c / walls[i]
	}
	r.e2e["sim_cycles_per_s"] = median(rates)
	cold, hot, dw, get := r.series["serve.cold_ms"], r.series["serve.hot_ms"], r.series["serve.diskwarm_ms"], r.series["serve.get_ms"]
	warm := append(slices.Clone(hot), dw...)
	r.layer["serve.cold_batch_ms_p50"] = percentile(cold, 50)
	r.layer["serve.cold_batch_ms_p90"] = percentile(cold, 90)
	r.layer["serve.warm_batch_ms_p50"] = percentile(warm, 50)
	r.layer["serve.warm_batch_ms_p90"] = percentile(warm, 90)
	r.layer["serve.get_ms_p50"] = percentile(get, 50)
	r.layer["serve.hot_batch_ms_p50"] = percentile(hot, 50)
	r.layer["serve.diskwarm_batch_ms_p50"] = percentile(dw, 50)
	for _, name := range []string{
		"serve.response_kb_mean", "serve.refused", "serve.server_cpu_s", "serve.client_cpu_s",
		"cluster.dispatched", "cluster.stolen", "cluster.steal_frac", "cluster.redispatched", "cluster.local_runs",
		"engine.executed", "engine.store_hits", "store.hit_ratio",
	} {
		r.layer[name] = median(r.series[name])
	}
	return nil
}

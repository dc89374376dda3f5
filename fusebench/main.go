// Command fusebench is the repository's benchmark. It runs one named
// workload for a fixed time and prints, as the last line of its standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
// peak_rss_mb, sim_cycles_per_s; timings in reference-host seconds, see
// probe.go); with -trace 1 they are the per-layer ones,
// measured from spans the benchmark records around its calls into each
// layer, from a CPU profile of its own process, and from the server's
// counters. Standard error carries a human-readable summary (minimum,
// quartiles, median, 90th percentile and sample count of every measured
// series, including the per-request latencies of serve-fleet) and, in traced
// runs, the path of the span files.
//
// Workloads (see ledger.json for why each was chosen and which metric each
// layer moves):
//
//	sim-full     12 full-scale simulations via sim.RunWorkloadContext
//	fig-matrix   the fig 13-17 matrix, cold into a fresh disk store, then warm
//	serve-fleet  a real fuseserve coordinator with 2 in-process workers,
//	             driven by 2 closed-loop HTTP clients
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash fusebench/run.sh --workload sim-full --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric units, by metric name. endToEnd metrics are printed by untraced
// runs, perLayer metrics by traced runs; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles_per_s", "cycles/s"},
}

var perLayer = []struct{ name, unit string }{
	// Simulation core: CPU profile shares and host cost per simulated access.
	{"cpu.sim", "frac"}, {"cpu.gpu", "frac"}, {"cpu.core", "frac"}, {"cpu.cache", "frac"},
	{"cpu.cbf", "frac"}, {"cpu.predictor", "frac"}, {"cpu.l2", "frac"}, {"cpu.dram", "frac"},
	{"cpu.noc", "frac"}, {"cpu.trace", "frac"}, {"cpu.runtime", "frac"}, {"cpu.other", "frac"},
	{"cum.cache.TagStore.Lookup", "frac"}, {"cum.dram.DRAM.NextEventAt", "frac"},
	{"cum.l2.L2.Access", "frac"}, {"cum.core.HybridL1D.Access", "frac"}, {"cum.gpu.SM.Cycle", "frac"},
	{"sim.host_ns_per_access.dyfuse", "ns"}, {"sim.host_ns_per_access.fafuse", "ns"},
	{"sim.host_ns_per_access.l1sram", "ns"},
	{"sim.allocs_per_pass", "count"}, {"sim.alloc_mb_per_pass", "MB"},
	{"runtime.gc_cpu_frac", "frac"},
	// Batch engine.
	{"engine.exec_ms_p50", "ms"}, {"engine.exec_s_sum", "s"}, {"engine.queue_wait_ms_p50", "ms"},
	{"engine.pool_busy_frac", "frac"}, {"engine.tail_idle_s", "s"},
	{"engine.executed", "count"}, {"engine.store_hits", "count"},
	// Experiments and the result store.
	{"experiments.render_ms", "ms"}, {"experiments.warm_s", "s"},
	{"store.mem.get_us_p50", "us"}, {"store.disk.get_us_p50", "us"}, {"store.disk.put_us_p50", "us"},
	{"store.disk.put_ms_sum", "ms"}, {"store.hit_ratio", "frac"},
	// Serving front door, measured at the client.
	{"serve.cold_batch_ms_p50", "ms"}, {"serve.cold_batch_ms_p90", "ms"},
	{"serve.warm_batch_ms_p50", "ms"}, {"serve.warm_batch_ms_p90", "ms"},
	{"serve.get_ms_p50", "ms"}, {"serve.hot_batch_ms_p50", "ms"}, {"serve.diskwarm_batch_ms_p50", "ms"},
	{"serve.response_kb_mean", "KB"}, {"serve.refused", "count"},
	{"serve.server_cpu_s", "s"}, {"serve.client_cpu_s", "s"},
	// Fleet dispatch (/healthz deltas over a pass).
	{"cluster.dispatched", "count"}, {"cluster.stolen", "count"}, {"cluster.steal_frac", "frac"},
	{"cluster.redispatched", "count"}, {"cluster.local_runs", "count"},
	{"trace_overhead_frac", "frac"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"sim-full":    runSimFull,
	"fig-matrix":  runFigMatrix,
	"serve-fleet": runServeFleet,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64 // the workload seed: sim.Options.Seed (0 = the simulator's 42)
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for stores, spans and profiles

	tr *tracer // non-nil during traced passes only
	// inProcess reports whether the simulations run in this process, so a
	// CPU profile of it attributes their time to the simulator's layers.
	inProcess bool

	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	series            map[string][]float64 // everything measured, for the summary

	profile cpuTimes // merged CPU profile of the traced passes
	clock   hostClock
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "fusebench: %s: FAILED: %v\n", r.workload, err)
	}
}

// wrong counts an output check that failed; the operation it checked was
// already counted as attempted.
func (r *run) wrong(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "fusebench: %s: WRONG: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// record appends a sample to a named series for the summary.
func (r *run) record(name string, v float64) {
	r.series[name] = append(r.series[name], v)
}

// rescale records a duration measured since the host clock's previous lap,
// raw under name+"_raw" and in reference-host seconds under name, and
// returns the latter.
func (r *run) rescale(name string, d time.Duration) float64 {
	f := r.clock.lap()
	v := d.Seconds() * f
	r.record(name+"_raw", d.Seconds())
	r.record("host.speed", f)
	r.record(name, v)
	return v
}

// setup runs fn n times and reports the median duration, in reference-host
// seconds, as setup_s. Only the last set-up's state survives into the
// measured passes; fn tears earlier ones down itself.
func (r *run) setup(n int, fn func(last bool) error) error {
	var ts []float64
	r.clock.lap()
	for i := range n {
		t0 := time.Now()
		err := fn(i == n-1)
		r.op(err)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, r.rescale("setup_s", time.Since(t0)))
	}
	r.e2e["setup_s"] = median(ts)
	return nil
}

// passes runs pass until the run's time is spent: at least minN passes and
// at most maxN, and no pass that would, at the pace of the slowest so far,
// end past the deadline. In a traced run the first pass runs untraced, as the
// baseline of trace_overhead_frac; every later pass runs with r.tr set and
// under the CPU profiler. pass returns the wall time of its fixed work.
// passes returns every pass's wall in reference-host seconds, by pass
// number; the end-to-end metrics take their median (untraced runs only print
// them).
func (r *run) passes(minN, maxN int, pass func(i int) (time.Duration, error)) ([]float64, error) {
	if r.traced {
		minN = max(minN, 2)
	}
	deadline := time.Now().Add(r.seconds)
	var walls []float64
	var slowest time.Duration
	// The set-up's last probe opens the first pass's interval.
	for i := 0; i < maxN && (i < minN || time.Now().Add(slowest).Before(deadline)); i++ {
		t0 := time.Now()
		tracedPass := r.traced && i > 0
		var prof *profiler
		if tracedPass {
			r.tr = newTracer()
			if r.inProcess {
				prof = startProfile()
			}
		}
		wall, err := pass(i)
		if tracedPass {
			r.profile.add(prof.stop())
			if werr := writeSpans(filepath.Join(r.work, fmt.Sprintf("spans-pass%d.jsonl", i)), r.tr.snapshot()); werr != nil {
				fmt.Fprintf(os.Stderr, "fusebench: writing spans: %v\n", werr)
			}
			r.tr = nil
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		walls = append(walls, r.rescale("wall_s", wall))
		slowest = max(slowest, time.Since(t0))
	}
	if r.traced {
		r.layer["trace_overhead_frac"] = median(walls[1:])/walls[0] - 1
	}
	return walls, nil
}

// profiler is a CPU profile in progress.
type profiler struct {
	buf bytes.Buffer
	on  bool
}

func startProfile() *profiler {
	p := &profiler{}
	p.on = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

func (p *profiler) stop() cpuTimes {
	if p == nil || !p.on {
		return cpuTimes{}
	}
	pprof.StopCPUProfile()
	t, err := reduceProfile(p.buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: %v\n", err)
	}
	return t
}

// setProfileShares turns the merged CPU profile into the cpu.* and cum.*
// per-layer metrics.
func (r *run) setProfileShares() {
	for _, m := range perLayer {
		if layer, ok := strings.CutPrefix(m.name, "cpu."); ok {
			r.layer[m.name] = r.profile.selfShare(layer)
		} else if fn, ok := strings.CutPrefix(m.name, "cum."); ok {
			r.layer[m.name] = r.profile.cumShare(fn)
		}
	}
}

// memSnap is the allocation and GC state at one instant.
type memSnap struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := slices.Clone(cpuMetrics)
	metrics.Read(s)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// recordAllocs records the allocation and GC cost between two snapshots as
// the pass's sim.* and runtime.* per-layer samples.
func (r *run) recordAllocs(a, b memSnap) {
	r.record("sim.allocs_per_pass", float64(b.mallocs-a.mallocs))
	r.record("sim.alloc_mb_per_pass", float64(b.bytes-a.bytes)/(1<<20))
	r.record("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU))
}

// vmHWM reads a process's peak resident set size (VmHWM) in MB.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// summarize prints every measured series to standard error.
func (r *run) summarize() {
	names := make([]string, 0, len(r.series))
	for k := range r.series {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "fusebench: %s seed %d trace %v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(os.Stderr, "fusebench:   %-32s %12s %12s %12s %12s %12s %6s\n",
		"series", "min", "q1", "median", "q3", "p90", "n")
	for _, k := range names {
		xs := r.series[k]
		fmt.Fprintf(os.Stderr, "fusebench:   %-32s %12.6g %12.6g %12.6g %12.6g %12.6g %6d\n",
			k, slices.Min(xs), percentile(xs, 25), median(xs), percentile(xs, 75), percentile(xs, 90), len(xs))
	}
}

// result assembles the final JSON line.
func (r *run) result() resultJSON {
	out := resultJSON{Attempted: max(r.attempted, 1), Failed: min(r.failed, max(r.attempted, 1)), Metrics: map[string]metricJSON{}}
	out.Correct = r.failed == 0
	list, vals := endToEnd, r.e2e
	if r.traced {
		list, vals = perLayer, r.layer
	}
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over a layer that did no work
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	return out
}

func main() {
	workload := flag.String("workload", "", "workload to run: sim-full, fig-matrix or serve-fleet")
	seed := flag.Uint64("seed", 42, "workload seed (feeds sim.Options.Seed and the request generator)")
	secs := flag.Int("seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	probeFlag := flag.Bool("probe", false, "time the host-speed probe, print nanoseconds and exit (the benchmark runs itself so)")
	flag.Parse()
	if *probeFlag {
		runProbe()
		return
	}

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "fusebench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "runs"), *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*secs) * time.Second,
		traced:   *traceFlag == 1,
		work:     work,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		series:   map[string][]float64{},
	}

	// A wedged run must still end within three minutes: the context reaches
	// every simulation and request.
	ctx, cancel := context.WithTimeout(context.Background(), r.seconds+120*time.Second)
	err = errors.Join(drive(ctx, r), r.clock.err)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.traced {
		fmt.Fprintf(os.Stderr, "fusebench: spans written under %s\n", work)
	} else {
		os.RemoveAll(work)
	}
	r.summarize()
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

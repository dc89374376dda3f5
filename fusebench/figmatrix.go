package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/stats"
	"fuse/internal/store"
)

// fig-matrix: the fig 13-17 matrix in process, as fusetables runs it. The
// cold pass simulates 147 points on the engine's default pool and writes
// each to a fresh disk store; the warm pass opens a fresh Runner and memory
// tier over the same directory, so it reads 147 entries and simulates
// nothing. Many of the simulations are small, so per-job fixed costs show.
var figNames = []string{
	experiments.ExpFig13, experiments.ExpFig14, experiments.ExpFig15,
	experiments.ExpFig16, experiments.ExpFig17,
}

var figFuncs = []func(*experiments.Matrix, []string) (*stats.Table, error){
	experiments.Fig13NormalizedIPC, experiments.Fig14MissRate, experiments.Fig15CacheStalls,
	experiments.Fig16PredictorAccuracy, experiments.Fig17L1DEnergy,
}

// figRun is one pass over the matrix against a store directory.
type figRun struct {
	matrix *experiments.Matrix
	tables []string
	wall   time.Duration
}

// figPass opens the store at dir, pre-warms the fig 13-17 job set and
// renders the five tables. When traced, every tier, the Tiered cache the
// engine sees and the executor are wrapped in timing decorators.
func figPass(ctx context.Context, tr *tracer, scale experiments.Scale, dir, name string) (figRun, error) {
	t0 := time.Now()
	passID := tr.start("pass", 0, name)
	defer func() { tr.end(passID, true, 0) }()
	tr.enter(passID)

	disk, err := store.Open(dir)
	if err != nil {
		return figRun{}, err
	}
	cfg := engine.Config{}
	if tr == nil {
		cfg.Cache = store.NewTiered(store.NewMemoryLRU(0), disk)
	} else {
		tiered := store.NewTiered(timedCache{store.NewMemoryLRU(0), "mem", tr}, timedCache{disk, "disk", tr})
		cfg.Cache = timedCache{tiered, "tiered", tr}
		cfg.Exec = timedExec(tr, engine.Execute)
	}
	m := experiments.NewMatrixRunner(scale, engine.New(cfg))

	batchID := tr.start("engine.batch", passID, name)
	tr.enter(batchID)
	err = m.Prewarm(ctx, figNames, nil)
	tr.end(batchID, err == nil, 0)
	tr.enter(passID)
	if err != nil {
		return figRun{}, err
	}
	renderID := tr.start("experiments.render", passID, name)
	var tables []string
	for i, fig := range figFuncs {
		t, err := fig(m, experiments.AllWorkloads())
		if err != nil {
			return figRun{}, fmt.Errorf("%s: %w", figNames[i], err)
		}
		tables = append(tables, t.String())
	}
	tr.end(renderID, true, 0)
	return figRun{matrix: m, tables: tables, wall: time.Since(t0)}, nil
}

// figJobs is the deduplicated fig 13-17 job set of a matrix.
func figJobs(m *experiments.Matrix) []engine.Job {
	var jobs []engine.Job
	seen := map[engine.Key]bool{}
	for _, name := range figNames {
		for _, j := range m.Jobs(name, nil) {
			if !seen[j.Key()] {
				seen[j.Key()] = true
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

func runFigMatrix(ctx context.Context, r *run) error {
	r.inProcess = true
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	scale := experiments.Scale{InstructionsPerWarp: experiments.BenchScale.InstructionsPerWarp,
		SMs: experiments.BenchScale.SMs, Seed: r.seed}

	// Set-up warms the process with the same cold path at quick scale.
	quick := experiments.Scale{InstructionsPerWarp: 50, SMs: 1, Seed: r.seed}
	if err := r.setup(7, func(bool) error {
		dir, err := os.MkdirTemp(r.work, "warmup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		_, err = figPass(ctx, nil, quick, dir, "setup")
		return err
	}); err != nil {
		return err
	}

	var cycles float64 // simulated by every cold pass alike
	var firstTables []string
	walls, err := r.passes(1, 12, func(i int) (time.Duration, error) {
		dir, err := os.MkdirTemp(r.work, "store-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		m0 := readMem()
		cold, err := figPass(ctx, r.tr, scale, dir, "cold")
		m1 := readMem()
		if err != nil {
			r.op(err)
			return 0, err
		}
		coldSpans := r.tr.snapshot()
		warm, err := figPass(ctx, r.tr, scale, dir, "warm")
		if err != nil {
			r.op(err)
			return 0, err
		}
		r.record("experiments.warm_s", warm.wall.Seconds())

		cycles = r.checkFigPass(ctx, cold, warm, golden, &firstTables)
		r.record("sim_cycles_per_s_raw", cycles/cold.wall.Seconds())
		if r.tr != nil {
			r.recordAllocs(m0, m1)
			r.recordFigLayers(cold, warm, coldSpans, r.tr.snapshot())
		}
		return cold.wall, nil
	})
	if err != nil {
		return err
	}
	r.e2e["wall_s"] = median(walls)
	r.e2e["sim_cycles_per_s"] = cycles / r.e2e["wall_s"]
	if r.e2e["peak_rss_mb"], err = vmHWM("self"); err != nil {
		return err
	}
	for _, name := range []string{
		"sim.host_ns_per_access.dyfuse", "sim.host_ns_per_access.fafuse", "sim.host_ns_per_access.l1sram",
		"sim.allocs_per_pass", "sim.alloc_mb_per_pass", "runtime.gc_cpu_frac",
		"engine.exec_ms_p50", "engine.exec_s_sum", "engine.queue_wait_ms_p50", "engine.pool_busy_frac",
		"engine.tail_idle_s", "engine.executed", "engine.store_hits",
		"experiments.render_ms", "experiments.warm_s",
		"store.mem.get_us_p50", "store.disk.get_us_p50", "store.disk.put_us_p50",
		"store.disk.put_ms_sum", "store.hit_ratio",
	} {
		r.layer[name] = median(r.series[name])
	}
	r.setProfileShares()
	return nil
}

// checkFigPass checks a cold/warm pair: the warm pass simulated nothing and
// read every point from disk, its tables are byte-identical to the cold
// ones (and to the first pass's), every result keeps the conservation
// invariants, and the default seed's tables match the pinned digests. It
// returns the simulated cycles of the cold pass.
func (r *run) checkFigPass(ctx context.Context, cold, warm figRun, golden goldenDigests, first *[]string) float64 {
	jobs := figJobs(cold.matrix)
	cr, wr := cold.matrix.Runner(), warm.matrix.Runner()
	if cr.Executed() != len(jobs) || cr.StoreHits() != 0 {
		r.wrong("cold pass executed %d and hit %d of %d jobs", cr.Executed(), cr.StoreHits(), len(jobs))
	}
	if wr.Executed() != 0 || wr.StoreHits() != len(jobs) {
		r.wrong("warm pass executed %d and hit %d of %d jobs", wr.Executed(), wr.StoreHits(), len(jobs))
	}
	if !slices.Equal(cold.tables, warm.tables) {
		r.wrong("warm tables differ from cold tables")
	}
	if *first != nil && !slices.Equal(*first, cold.tables) {
		r.wrong("tables differ from the first pass")
	}
	// Each point is two operations: simulated and stored cold, read warm.
	var total float64
	for _, job := range jobs {
		res, err := cr.Get(ctx, job)
		if err == nil {
			err = checkInvariants(res, config.FermiGPU(config.NewL1DConfig(job.Kind)), job.Opts)
		}
		r.op(err)
		r.op(nil)
		total += float64(res.Cycles)
	}
	if *first == nil {
		*first = cold.tables
		digests := map[string]string{}
		for i, t := range cold.tables {
			digests[figNames[i]] = digest(t)
			r.logDigest(figNames[i], digests[figNames[i]])
		}
		if scaleSeed := cold.matrix.Scale().Options().WithDefaults().Seed; scaleSeed == golden.Seed {
			for _, bad := range checkPinned(golden.Figures, digests) {
				r.wrong("%s", bad)
			}
		}
	}
	return total
}

// recordFigLayers derives the engine, store and simulation per-layer samples
// of one traced cold/warm pair from its spans.
func (r *run) recordFigLayers(cold, warm figRun, coldSpans, all []span) {
	coldPass := named(coldSpans, "pass", nil)[0]
	coldTree := subtree(coldSpans, coldPass.ID)
	batch := named(coldSpans, "engine.batch", coldTree)[0]

	// Executions: duration, and the wait between the job's store miss and
	// its start on a worker.
	missAt := map[string]time.Duration{}
	for _, s := range named(coldSpans, "store.get.tiered", coldTree) {
		if !s.OK {
			missAt[s.Attr] = s.End
		}
	}
	var execMs, waitMs []float64
	var execSum time.Duration
	var ends []time.Duration
	perKind := map[config.L1DKind][2]float64{}
	for _, s := range named(coldSpans, "engine.exec", coldTree) {
		execMs = append(execMs, float64(s.dur())/1e6)
		execSum += s.dur()
		ends = append(ends, s.End)
		key, job, _ := strings.Cut(s.Attr, " ")
		if at, ok := missAt[key]; ok {
			waitMs = append(waitMs, float64(s.Start-at)/1e6)
		}
		kindName, _, _ := strings.Cut(job, "/")
		if kind, err := config.ParseL1DKind(kindName); err == nil {
			a := perKind[kind]
			perKind[kind] = [2]float64{a[0] + float64(s.dur()), a[1] + float64(s.Count)}
		}
	}
	for kind, name := range hostNsMetric {
		if a, ok := perKind[kind]; ok {
			r.record(name, ratio(a[0], a[1]))
		}
	}
	workers := cold.matrix.Runner().Workers()
	// Tail idle: once the last job has started, each worker that finishes
	// idles until the batch ends; sum that over the pool's last finishers.
	slices.Sort(ends)
	var tail time.Duration
	for _, e := range ends[max(0, len(ends)-workers):] {
		tail += batch.End - e
	}
	r.record("engine.exec_ms_p50", median(execMs))
	r.record("engine.exec_s_sum", execSum.Seconds())
	r.record("engine.queue_wait_ms_p50", median(waitMs))
	r.record("engine.pool_busy_frac", execSum.Seconds()/(cold.wall.Seconds()*float64(workers)))
	r.record("engine.tail_idle_s", tail.Seconds())
	r.record("engine.executed", float64(cold.matrix.Runner().Executed()))
	r.record("engine.store_hits", float64(warm.matrix.Runner().StoreHits()))
	for _, s := range named(coldSpans, "experiments.render", coldTree) {
		r.record("experiments.render_ms", float64(s.dur())/1e6)
	}

	// Store tiers over both passes: memory gets (all misses here: each pass
	// starts with an empty memory tier), disk reads that hit (the warm
	// pass), disk writes (the cold pass), and the engine-level hit ratio.
	var memGet, diskGet, diskPut []float64
	var gets, hits float64
	for _, s := range all {
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case "store.get.mem":
			memGet = append(memGet, us)
		case "store.get.disk":
			if s.OK {
				diskGet = append(diskGet, us)
			}
		case "store.put.disk":
			diskPut = append(diskPut, us)
		case "store.get.tiered":
			gets++
			if s.OK {
				hits++
			}
		}
	}
	r.record("store.mem.get_us_p50", median(memGet))
	r.record("store.disk.get_us_p50", median(diskGet))
	r.record("store.disk.put_us_p50", median(diskPut))
	r.record("store.disk.put_ms_sum", sum(diskPut)/1e3)
	r.record("store.hit_ratio", ratio(hits, gets))
}

package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"fuse/internal/config"
	"fuse/internal/sim"
)

// sim-full: sequential full-scale (15-SM Fermi, 400 instructions per warp)
// simulations through sim.RunWorkloadContext. Nearly all host time is in the
// cycle core. FA-FUSE scans the 512-way STT tag bank and L1-SRAM does not;
// ATAX and GEMM are DRAM-bound and pathf is compute-bound, so a hotspot fix
// shows where it applies and shows no change where it does not.
var (
	simFullKinds     = []config.L1DKind{config.DyFUSE, config.FAFUSE, config.L1SRAM}
	simFullWorkloads = []string{"ATAX", "GEMM", "2MM", "pathf"}
)

// hostNsMetric names the per-kind host-time-per-access metric.
var hostNsMetric = map[config.L1DKind]string{
	config.DyFUSE: "sim.host_ns_per_access.dyfuse",
	config.FAFUSE: "sim.host_ns_per_access.fafuse",
	config.L1SRAM: "sim.host_ns_per_access.l1sram",
}

// simPoint is one simulation of a pass with its host time.
type simPoint struct {
	kind     config.L1DKind
	workload string
	res      sim.Result
	host     time.Duration
}

func (p simPoint) name() string { return p.kind.String() + "/" + p.workload }

// simPass runs every sim-full point once, in order, recording a span per
// simulation when traced.
func simPass(ctx context.Context, tr *tracer, opts sim.Options) ([]simPoint, error) {
	var out []simPoint
	for _, kind := range simFullKinds {
		for _, w := range simFullWorkloads {
			p := simPoint{kind: kind, workload: w}
			id := tr.start("sim.run", tr.parent(), p.name())
			t0 := time.Now()
			res, err := sim.RunWorkloadContext(ctx, kind, w, opts)
			p.host = time.Since(t0)
			tr.end(id, err == nil, res.L1D.Accesses)
			if err != nil {
				return out, fmt.Errorf("%s: %w", p.name(), err)
			}
			p.res = res
			out = append(out, p)
		}
	}
	return out, nil
}

func runSimFull(ctx context.Context, r *run) error {
	r.inProcess = true
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	opts := sim.Options{InstructionsPerWarp: 400, Seed: r.seed}
	// Set-up warms the process (heap growth, lazily built tables) on the
	// same points at a small scale.
	warm := sim.Options{InstructionsPerWarp: 100, SMOverride: 2, Seed: r.seed}
	if err := r.setup(7, func(bool) error {
		_, err := simPass(ctx, nil, warm)
		return err
	}); err != nil {
		return err
	}

	var first []simPoint
	var cycles float64 // simulated by every pass alike
	walls, err := r.passes(2, 8, func(i int) (time.Duration, error) {
		passID := r.tr.start("pass", 0, "sim-full")
		r.tr.enter(passID)
		m0 := readMem()
		t0 := time.Now()
		points, err := simPass(ctx, r.tr, opts)
		wall := time.Since(t0)
		m1 := readMem()
		r.tr.end(passID, err == nil, 0)
		for range points {
			r.op(nil)
		}
		if err != nil {
			r.op(err)
			return wall, err
		}
		if r.tr != nil {
			r.recordAllocs(m0, m1)
			perKind := map[config.L1DKind][2]float64{}
			for _, p := range points {
				a := perKind[p.kind]
				perKind[p.kind] = [2]float64{a[0] + float64(p.host.Nanoseconds()), a[1] + float64(p.res.L1D.Accesses)}
			}
			for kind, a := range perKind {
				r.record(hostNsMetric[kind], ratio(a[0], a[1]))
			}
		}
		r.checkSimPass(points, opts, golden, &first)
		var total float64
		for _, p := range points {
			total += float64(p.res.Cycles)
		}
		cycles = total
		r.record("sim_cycles_per_s_raw", total/wall.Seconds())
		return wall, nil
	})
	if err != nil {
		return err
	}
	r.e2e["wall_s"] = median(walls)
	r.e2e["sim_cycles_per_s"] = cycles / r.e2e["wall_s"]
	r.e2e["peak_rss_mb"], err = vmHWM("self")
	if err != nil {
		return err
	}
	for _, name := range []string{"sim.host_ns_per_access.dyfuse", "sim.host_ns_per_access.fafuse",
		"sim.host_ns_per_access.l1sram", "sim.allocs_per_pass", "sim.alloc_mb_per_pass", "runtime.gc_cpu_frac"} {
		r.layer[name] = median(r.series[name])
	}
	r.setProfileShares()
	return nil
}

// checkSimPass checks one pass's results: conservation invariants on every
// result, bit-identical results across passes, and the pinned digests for
// the default seed.
func (r *run) checkSimPass(points []simPoint, opts sim.Options, golden goldenDigests, first *[]simPoint) {
	digests := map[string]string{}
	for i, p := range points {
		if err := checkInvariants(p.res, config.FermiGPU(config.NewL1DConfig(p.kind)), opts); err != nil {
			r.wrong("%v", err)
		}
		if *first != nil && !reflect.DeepEqual((*first)[i].res, p.res) {
			r.wrong("%s: result differs from the first pass", p.name())
		}
		digests[p.name()] = digest(p.res)
	}
	if *first == nil {
		*first = points
		if opts.WithDefaults().Seed == golden.Seed {
			for _, bad := range checkPinned(golden.SimFull, digests) {
				r.wrong("%s", bad)
			}
		}
		for _, p := range points {
			r.logDigest(p.name(), digests[p.name()])
		}
	}
}

// logDigest prints a digest to standard error (the source of golden.json).
func (r *run) logDigest(name, d string) {
	fmt.Fprintf(os.Stderr, "fusebench: digest seed %d %s %s\n", r.seed, name, d)
}

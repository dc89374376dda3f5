package sim

import (
	"fmt"
	"strings"
	"testing"

	"fuse/internal/config"
	"fuse/internal/trace"
)

// quickOpts keeps unit-test runs small and fast.
func quickOpts() Options {
	return Options{InstructionsPerWarp: 300, Seed: 7, SMOverride: 2, MaxCycles: 2_000_000}
}

func mustRun(t *testing.T, kind config.L1DKind, workload string, opts Options) Result {
	t.Helper()
	res, err := RunWorkload(kind, workload, opts)
	if err != nil {
		t.Fatalf("RunWorkload(%v, %s): %v", kind, workload, err)
	}
	return res
}

func TestRunCompletesAndAccountsInstructions(t *testing.T) {
	opts := quickOpts()
	res := mustRun(t, config.L1SRAM, "2DCONV", opts)
	wantInstr := uint64(opts.SMOverride) * 48 * opts.InstructionsPerWarp
	if res.Instructions != wantInstr {
		t.Errorf("Instructions = %d, want %d", res.Instructions, wantInstr)
	}
	if res.Cycles <= 0 || res.Cycles >= opts.MaxCycles {
		t.Errorf("run should finish within the cycle limit, took %d", res.Cycles)
	}
	if res.IPC <= 0 {
		t.Errorf("IPC should be positive, got %v", res.IPC)
	}
	if res.L1D.Accesses == 0 || res.L1DMissRate <= 0 || res.L1DMissRate > 1 {
		t.Errorf("L1D stats implausible: accesses=%d missRate=%v", res.L1D.Accesses, res.L1DMissRate)
	}
	if res.SimulatedSMs != opts.SMOverride {
		t.Errorf("SimulatedSMs = %d, want %d", res.SimulatedSMs, opts.SMOverride)
	}
	if res.Workload != "2DCONV" || res.L1DKind != config.L1SRAM {
		t.Errorf("result identification wrong: %s %v", res.Workload, res.L1DKind)
	}
	if !strings.Contains(res.String(), "IPC") {
		t.Errorf("String() should include the IPC")
	}
}

func TestMissesReachL2AndDRAM(t *testing.T) {
	res := mustRun(t, config.L1SRAM, "ATAX", quickOpts())
	if res.L2Accesses == 0 {
		t.Errorf("L1D misses should reach the L2")
	}
	if res.DRAMAccesses == 0 {
		t.Errorf("L2 misses should reach DRAM")
	}
	if res.NoCRequests == 0 || res.NoCResponses == 0 {
		t.Errorf("traffic should cross the interconnect: %d req %d resp", res.NoCRequests, res.NoCResponses)
	}
	if res.AvgFillNoC <= 0 || res.AvgFillMemory <= 0 {
		t.Errorf("fill latency decomposition should be positive: noc=%v mem=%v", res.AvgFillNoC, res.AvgFillMemory)
	}
}

func TestMemoryIntensiveWorkloadIsOffChipBound(t *testing.T) {
	// Figure 1's observation: for memory-intensive workloads most of the
	// execution time is spent on off-chip accesses with the baseline cache.
	res := mustRun(t, config.L1SRAM, "ATAX", quickOpts())
	if res.OffChipFraction < 0.4 {
		t.Errorf("ATAX on L1-SRAM should be dominated by off-chip time, got %.2f", res.OffChipFraction)
	}
	if res.NetworkFraction+res.DRAMFraction > res.OffChipFraction+1e-9 {
		t.Errorf("network+DRAM fractions cannot exceed the off-chip fraction")
	}
	// A compute-bound workload spends far less time off-chip.
	light := mustRun(t, config.L1SRAM, "pathf", quickOpts())
	if light.OffChipFraction >= res.OffChipFraction {
		t.Errorf("pathf (APKI 1.2) should be less off-chip bound than ATAX: %.2f vs %.2f",
			light.OffChipFraction, res.OffChipFraction)
	}
}

func TestDyFUSEOutperformsL1SRAMOnIrregularWorkload(t *testing.T) {
	// The headline result (Figure 13): Dy-FUSE beats the SRAM baseline on
	// irregular, thrash-prone workloads.
	opts := quickOpts()
	base := mustRun(t, config.L1SRAM, "ATAX", opts)
	dy := mustRun(t, config.DyFUSE, "ATAX", opts)
	if dy.IPC <= base.IPC {
		t.Errorf("Dy-FUSE should outperform L1-SRAM on ATAX: %.3f vs %.3f", dy.IPC, base.IPC)
	}
	if dy.L1DMissRate >= base.L1DMissRate {
		t.Errorf("Dy-FUSE should reduce the L1D miss rate: %.3f vs %.3f", dy.L1DMissRate, base.L1DMissRate)
	}
	if dy.L1D.OutgoingRequests >= base.L1D.OutgoingRequests {
		t.Errorf("Dy-FUSE should reduce outgoing memory references: %d vs %d",
			dy.L1D.OutgoingRequests, base.L1D.OutgoingRequests)
	}
	if got := dy.SpeedupOver(base); got <= 1 {
		t.Errorf("SpeedupOver should exceed 1, got %v", got)
	}
}

func TestDyFUSEBeatsBlockingHybrid(t *testing.T) {
	opts := quickOpts()
	hybrid := mustRun(t, config.Hybrid, "BICG", opts)
	dy := mustRun(t, config.DyFUSE, "BICG", opts)
	if dy.IPC <= hybrid.IPC {
		t.Errorf("Dy-FUSE should outperform the unoptimised Hybrid: %.3f vs %.3f", dy.IPC, hybrid.IPC)
	}
	if hybrid.STTWriteStalls == 0 {
		t.Errorf("the blocking Hybrid should suffer STT-MRAM write stalls")
	}
}

func TestBaseFUSEReducesStallsVsHybrid(t *testing.T) {
	// Figure 15: the swap buffer + tag queue remove most STT-MRAM stalls.
	opts := quickOpts()
	hybrid := mustRun(t, config.Hybrid, "FDTD", opts)
	base := mustRun(t, config.BaseFUSE, "FDTD", opts)
	if base.STTWriteStalls >= hybrid.STTWriteStalls {
		t.Errorf("Base-FUSE should have fewer STT write stalls than Hybrid: %d vs %d",
			base.STTWriteStalls, hybrid.STTWriteStalls)
	}
}

func TestDyFUSEPredictorAccuracyHigh(t *testing.T) {
	// Figure 16: the read-level predictor is right most of the time.
	res := mustRun(t, config.DyFUSE, "GESUM", quickOpts())
	total := res.PredTrue + res.PredNeutral + res.PredFalse
	if total <= 0 {
		t.Fatalf("predictions should have been audited")
	}
	if res.PredFalse > 0.4 {
		t.Errorf("false predictions should be a minority, got %.2f", res.PredFalse)
	}
}

func TestOracleCacheNearlyEliminatesMisses(t *testing.T) {
	// Figure 3: an ideal (very large) L1D nearly eliminates thrashing.
	opts := quickOpts()
	prof, _ := trace.ProfileByName("ATAX")
	oracle := config.FermiGPU(config.OracleL1D())
	s, err := New(oracle, trace.Synthetic(prof), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	base := mustRun(t, config.L1SRAM, "ATAX", opts)
	if res.L1DMissRate >= base.L1DMissRate {
		t.Errorf("oracle cache should have a far lower miss rate: %.3f vs %.3f", res.L1DMissRate, base.L1DMissRate)
	}
	if res.IPC <= base.IPC {
		t.Errorf("oracle cache should be faster than the baseline: %.3f vs %.3f", res.IPC, base.IPC)
	}
}

func TestVoltaConfigurationRuns(t *testing.T) {
	prof, _ := trace.ProfileByName("gaussian")
	volta := config.VoltaGPU(config.ScaleL1D(config.NewL1DConfig(DyKindForTest()), 2))
	opts := quickOpts()
	s, err := New(volta, trace.Synthetic(prof), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.IPC <= 0 || res.GPUName != "Volta-like" {
		t.Errorf("Volta run failed: %+v", res.GPUName)
	}
}

// DyKindForTest returns the Dy-FUSE kind; a tiny helper so the Volta test
// reads clearly.
func DyKindForTest() config.L1DKind { return config.DyFUSE }

func TestRunWorkloadErrors(t *testing.T) {
	if _, err := RunWorkload(config.DyFUSE, "no-such-workload", quickOpts()); err == nil {
		t.Errorf("unknown workload should fail")
	}
	// Invalid GPU config propagates.
	prof, _ := trace.ProfileByName("ATAX")
	bad := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	bad.SMs = 0
	if _, err := New(bad, trace.Synthetic(prof), Options{}); err == nil {
		t.Errorf("invalid GPU config should fail")
	}
	badProf := prof
	badProf.APKI = 0
	if _, err := New(config.FermiGPU(config.NewL1DConfig(config.DyFUSE)), trace.Synthetic(badProf), Options{}); err == nil {
		t.Errorf("invalid profile should fail")
	}
}

func TestMaxCyclesBoundsRuntime(t *testing.T) {
	prof, _ := trace.ProfileByName("SM") // APKI 140: needs many cycles
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	s, err := New(gpuCfg, trace.Synthetic(prof), Options{InstructionsPerWarp: 100000, MaxCycles: 2000, SMOverride: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Cycles > 2100 {
		t.Errorf("run should stop near the cycle limit, took %d", res.Cycles)
	}
}

func TestSimulatorAccessors(t *testing.T) {
	prof, _ := trace.ProfileByName("2DCONV")
	s, err := New(config.FermiGPU(config.NewL1DConfig(config.DyFUSE)), trace.Synthetic(prof), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s.L2() == nil || s.DRAM() == nil || s.Network() == nil || len(s.SMs()) == 0 {
		t.Errorf("accessors should expose the subsystems")
	}
	if s.Now() != 0 {
		t.Errorf("fresh simulator should be at cycle 0")
	}
	s.Step()
	if s.Now() != 1 {
		t.Errorf("Step should advance one cycle")
	}
}

// lowLatencyGPU shrinks every memory-side latency to the smallest the
// machine can express — a 1-cycle L2, a zero-hop NoC and flits wide enough to
// carry a whole packet — so fills land within a cycle or two of their
// request, the tightest timing the sparse engine's wake bookkeeping faces.
func lowLatencyGPU(kind config.L1DKind) config.GPUConfig {
	cfg := config.FermiGPU(config.NewL1DConfig(kind))
	cfg.L2LatencyCycles = 1
	cfg.NoCLatencyPerHop = 0
	cfg.NoCFlitBytes = 1024 // whole request/response in one flit
	return cfg
}

// TestSparseEngineMatchesReference pins the sparse cycle engine's core
// invariant: cycling only the SMs that can make progress (and lazily charging
// the cycles they sleep through) must produce exactly the same Result struct
// — cycles, stalls, off-chip decomposition, energy inputs — as stepping every
// cycle. One memory-bound workload (ATAX: SMs spend most cycles asleep
// waiting on fills) and one compute-bound workload (pathf: SMs almost never
// sleep) exercise both extremes, across every L1D organisation: each has its
// own stall paths, and with them its own stall holds (By-NVM has none). Each
// runs on the Fermi machine and on the minimal-latency one.
func TestSparseEngineMatchesReference(t *testing.T) {
	machines := []struct {
		name string
		gpu  func(config.L1DKind) config.GPUConfig
	}{
		{"fermi", func(k config.L1DKind) config.GPUConfig { return config.FermiGPU(config.NewL1DConfig(k)) }},
		{"low-latency", lowLatencyGPU},
	}
	for _, m := range machines {
		for _, kind := range config.AllL1DKinds {
			for _, workload := range []string{"ATAX", "pathf"} {
				opts := quickOpts()
				prof, ok := trace.ProfileByName(workload)
				if !ok {
					t.Fatalf("workload %s missing", workload)
				}
				gpuCfg := m.gpu(kind)

				sparse, err := New(gpuCfg, trace.Synthetic(prof), opts)
				if err != nil {
					t.Fatal(err)
				}
				sparseRes := sparse.Run()

				ref, err := New(gpuCfg, trace.Synthetic(prof), opts)
				if err != nil {
					t.Fatal(err)
				}
				refRes := ref.RunReference()

				if sparseRes != refRes {
					t.Errorf("%s %v/%s: sparse engine result differs from step-every-cycle reference:\nsparse: %+v\nref:    %+v",
						m.name, kind, workload, sparseRes, refRes)
				}
				name := fmt.Sprintf("%s %v/%s", m.name, kind, workload)
				checkCycleLedger(t, name+" sparse", sparse)
				checkCycleLedger(t, name+" reference", ref)
			}
		}
	}
}

// checkCycleLedger asserts the per-SM cycle ledger of a finished run: each
// cycle an SM was charged issued an instruction, had its access rejected by
// the L1D, or found no ready warp — exactly one of the three, whether it was
// executed, replayed as a held stall or skipped while the SM slept.
func checkCycleLedger(t *testing.T, name string, s *Simulator) {
	t.Helper()
	for i, sm := range s.SMs() {
		st := sm.Stats()
		if sum := st.Issued + st.L1DStallCycles + st.NoReadyWarpCycles; st.Cycles != sum {
			t.Errorf("%s: SM %d charged %d cycles, but Issued %d + L1DStallCycles %d + NoReadyWarpCycles %d = %d",
				name, i, st.Cycles, st.Issued, st.L1DStallCycles, st.NoReadyWarpCycles, sum)
		}
	}
}

// TestSparseEngineMatchesReferenceAtCycleLimit covers the truncated-run path:
// a run that aborts at MaxCycles must charge the idle tail of every
// unfinished SM exactly as per-cycle stepping would — including when the
// sparse engine's next wake target lies beyond the limit (the time jump must
// clamp, never execute cycles past MaxCycles).
func TestSparseEngineMatchesReferenceAtCycleLimit(t *testing.T) {
	saturated := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	// A single warp per SM parks the whole SM on one fill, so the next-event
	// gap regularly straddles a small MaxCycles.
	gap := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	gap.WarpsPerSM = 1
	// Two MSHR entries fill at once, so the SMs sleep through held stalls
	// until a fill arrives; the run truncates while they do, and settle
	// must replay the held accesses up to the limit.
	held := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	held.L1D.MSHREntries = 2

	cases := []struct {
		name    string
		gpu     config.GPUConfig
		opts    Options
		midHold bool
	}{
		{"saturated", saturated, Options{InstructionsPerWarp: 100000, MaxCycles: 3000, SMOverride: 2, Seed: 3}, false},
		{"event-gap-straddles-limit", gap, Options{InstructionsPerWarp: 100000, MaxCycles: 7, SMOverride: 1, Seed: 3}, false},
		{"truncated-mid-hold", held, Options{InstructionsPerWarp: 100000, MaxCycles: 2500, SMOverride: 2, Seed: 3}, true},
	}
	for _, tc := range cases {
		prof, _ := trace.ProfileByName("SM") // APKI 140: misses immediately
		sparse, err := New(tc.gpu, trace.Synthetic(prof), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sparseRes := sparse.Run()

		ref, err := New(tc.gpu, trace.Synthetic(prof), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		refRes := ref.RunReference()

		if sparseRes != refRes {
			t.Errorf("%s: sparse engine differs from reference:\nsparse: %+v\nref:    %+v", tc.name, sparseRes, refRes)
		}
		checkCycleLedger(t, tc.name+" sparse", sparse)
		checkCycleLedger(t, tc.name+" reference", ref)
		if sparseRes.Cycles != tc.opts.MaxCycles {
			t.Errorf("%s: truncated run must stop exactly at the cycle limit, got %d (want %d)",
				tc.name, sparseRes.Cycles, tc.opts.MaxCycles)
		}
		if tc.midHold {
			holding := 0
			for _, sm := range sparse.SMs() {
				if sm.Holding() {
					holding++
				}
			}
			if holding == 0 {
				t.Errorf("%s: no SM was sleeping through a held stall at the limit", tc.name)
			}
		}
	}
}

func TestRunWorkloadResolvesThroughRegistry(t *testing.T) {
	// RunWorkload's single lookup path is the trace registry: a workload
	// registered there — builtin or custom — is runnable by name.
	custom := trace.Profile{
		Name: "sim-registry-custom", Suite: "Custom", APKI: 30,
		Mix:              trace.ReadLevelMix{WM: 0.2, ReadIntensive: 0.1, WORM: 0.6, WORO: 0.1},
		WorkingSetBlocks: 200, Irregular: 0.3, WORMReuse: 3,
	}
	if err := trace.RegisterProfile(custom); err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(config.DyFUSE, "sim-registry-custom", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "sim-registry-custom" || res.Instructions == 0 {
		t.Errorf("custom workload should run by name: %+v", res.Workload)
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.InstructionsPerWarp == 0 || o.MaxCycles == 0 || o.Seed == 0 || o.RequestBytes == 0 {
		t.Errorf("defaults should be filled in: %+v", o)
	}
	var r Result
	if r.SpeedupOver(Result{}) != 0 {
		t.Errorf("speedup over a zero-IPC baseline should be 0")
	}
}

func TestPhasedWorkloadRunsDeterministically(t *testing.T) {
	atax, _ := trace.ProfileByName("ATAX")
	pathf, _ := trace.ProfileByName("pathf")
	w := trace.NewPhased("sim-phased", []trace.Phase{
		{Profile: pathf, Instructions: 2000},
		{Profile: atax},
	})
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	run := func() Result {
		s, err := New(gpuCfg, w, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("phased workload must simulate deterministically:\na: %+v\nb: %+v", a, b)
	}
	if a.Workload != "sim-phased" || a.Instructions == 0 {
		t.Errorf("phased workload result malformed: %+v", a)
	}
}

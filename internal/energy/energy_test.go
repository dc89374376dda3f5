package energy

import (
	"math"
	"strings"
	"testing"

	"fuse/internal/config"
	"fuse/internal/sim"
)

// fakeResult builds a plausible Result without running a simulation.
func fakeResult(kind config.L1DKind) sim.Result {
	return sim.Result{
		Workload:     "ATAX",
		L1DKind:      kind,
		Cycles:       100000,
		Instructions: 50000,
		SimulatedSMs: 2,
		L2Accesses:   4000,
		DRAMAccesses: 3000,
		NoCRequests:  4000,
		NoCResponses: 3800,
		SRAMReads:    6000,
		SRAMWrites:   2500,
		STTReads:     3000,
		STTWrites:    1200,
	}
}

func TestBreakdownComponentsPositive(t *testing.T) {
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	b := FromResult(fakeResult(config.DyFUSE), gpuCfg)
	if b.ComputeDynamic <= 0 || b.L1DDynamic <= 0 || b.L2Dynamic <= 0 || b.DRAMDynamic <= 0 || b.NoCDynamic <= 0 {
		t.Errorf("dynamic components should be positive: %+v", b)
	}
	if b.L1DLeakage <= 0 || b.L2Leakage <= 0 || b.DRAMLeakage <= 0 || b.ComputeLeak <= 0 {
		t.Errorf("leakage components should be positive: %+v", b)
	}
	if b.Total() <= 0 || b.L1DTotal() <= 0 || b.OffChip() <= 0 || b.OnChipCompute() <= 0 {
		t.Errorf("aggregates should be positive")
	}
	if f := b.OffChipFraction(); f <= 0 || f >= 1 {
		t.Errorf("off-chip fraction should be in (0,1), got %v", f)
	}
	if !strings.Contains(b.String(), "energy[") {
		t.Errorf("String should render a report")
	}
}

func TestSRAMLeakageDominatesSTTMRAM(t *testing.T) {
	// The same traffic on an SRAM-only L1D leaks far more than on the
	// hybrid: SRAM leakage is 58 mW vs ~3.4 mW for the FUSE banks.
	res := fakeResult(config.L1SRAM)
	sramCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	fuseCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	sram := FromResult(res, sramCfg)
	resFuse := fakeResult(config.DyFUSE)
	fuse := FromResult(resFuse, fuseCfg)
	if sram.L1DLeakage <= fuse.L1DLeakage {
		t.Errorf("SRAM L1D should leak more than the hybrid: %v vs %v", sram.L1DLeakage, fuse.L1DLeakage)
	}
}

// TestL1DDynamicPerAccess pins every term of the L1D dynamic energy: n more
// accesses of one kind add exactly n times that bank's per-access energy.
func TestL1DDynamicPerAccess(t *testing.T) {
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	l1d := gpuCfg.L1D
	const n = 1000
	for _, tc := range []struct {
		name    string
		counter func(*sim.Result) *uint64
		energy  float64
	}{
		{"SRAMReads", func(r *sim.Result) *uint64 { return &r.SRAMReads }, l1d.SRAMTech.ReadEnergy},
		{"SRAMWrites", func(r *sim.Result) *uint64 { return &r.SRAMWrites }, l1d.SRAMTech.WriteEnergy},
		{"STTReads", func(r *sim.Result) *uint64 { return &r.STTReads }, l1d.STTTech.ReadEnergy},
		{"STTWrites", func(r *sim.Result) *uint64 { return &r.STTWrites }, l1d.STTTech.WriteEnergy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.energy <= 0 {
				t.Fatalf("per-access energy %v, want > 0", tc.energy)
			}
			base := fakeResult(config.DyFUSE)
			more := base
			*tc.counter(&more) += n
			got := FromResult(more, gpuCfg).L1DDynamic - FromResult(base, gpuCfg).L1DDynamic
			if want := n * tc.energy; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%d more %s add %v nJ of L1D dynamic energy, want %v", n, tc.name, got, want)
			}
		})
	}
}

func TestLongerRunsLeakMore(t *testing.T) {
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	short := fakeResult(config.L1SRAM)
	long := fakeResult(config.L1SRAM)
	long.Cycles = short.Cycles * 10
	b1 := FromResult(short, gpuCfg)
	b2 := FromResult(long, gpuCfg)
	if b2.L1DLeakage <= b1.L1DLeakage || b2.DRAMLeakage <= b1.DRAMLeakage {
		t.Errorf("leakage should grow with execution time")
	}
}

func TestZeroBreakdown(t *testing.T) {
	var b Breakdown
	if b.Total() != 0 || b.OffChipFraction() != 0 {
		t.Errorf("zero breakdown should report zeros")
	}
}

func TestLeakageHelperEdgeCases(t *testing.T) {
	if leakageNJ(10, 0, 1400) != 0 {
		t.Errorf("zero cycles should leak nothing")
	}
	if leakageNJ(10, 100, 0) != 0 {
		t.Errorf("zero clock should leak nothing")
	}
}

func TestTechnologyComparison(t *testing.T) {
	cmp := TechnologyComparison(64, 1_400_000, 1400) // 1 ms at 1.4 GHz
	sram, stt, edram := cmp["SRAM"], cmp["STT-MRAM"], cmp["eDRAM"]
	if sram <= 0 || stt <= 0 || edram <= 0 {
		t.Fatalf("all technologies should have positive standby energy: %v", cmp)
	}
	if stt >= sram {
		t.Errorf("STT-MRAM standby energy should be far below SRAM: %v vs %v", stt, sram)
	}
	if stt >= edram {
		t.Errorf("STT-MRAM should also beat eDRAM (which must refresh): %v vs %v", stt, edram)
	}
}

func TestEnergyFromRealRun(t *testing.T) {
	// Integration: an actual small simulation produces a consistent
	// breakdown, and the SRAM baseline spends most of its energy off-chip
	// for a memory-bound workload (Figure 1b).
	opts := sim.Options{InstructionsPerWarp: 200, Seed: 3, SMOverride: 2}
	res, err := sim.RunWorkload(config.L1SRAM, "ATAX", opts)
	if err != nil {
		t.Fatal(err)
	}
	b := FromResult(res, config.FermiGPU(config.NewL1DConfig(config.L1SRAM)))
	if b.Total() <= 0 {
		t.Fatalf("total energy should be positive")
	}
	if b.OffChipFraction() < 0.3 {
		t.Errorf("memory-bound baseline should spend a large energy fraction off-chip, got %.2f", b.OffChipFraction())
	}
}

package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/sim"
)

// smallWorkloads keeps the unit tests fast while still covering an irregular,
// a write-heavy and a compute-bound workload.
var smallWorkloads = []string{"ATAX", "2MM", "pathf"}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestMatrixCachesRuns(t *testing.T) {
	m := NewMatrix(QuickScale)
	if m.Scale() != QuickScale {
		t.Fatalf("Scale() mismatch")
	}
	t1, err := Run(m, ExpFig16, []string{"pathf"})
	if err != nil {
		t.Fatal(err)
	}
	runs := m.Runs()
	t2, err := Run(m, ExpFig16, []string{"pathf"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs() != runs {
		t.Errorf("second run should be served from the cache")
	}
	if t1.String() != t2.String() {
		t.Errorf("cached result should be identical")
	}
	if _, err := Run(m, ExpFig16, []string{"no-such-workload"}); err == nil {
		t.Errorf("unknown workload should fail")
	}
}

func TestFig13ShowsDyFUSEWinning(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Fig13NormalizedIPC(m, smallWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(smallWorkloads)+1 {
		t.Fatalf("expected one row per workload plus GMEAN, got %d", len(tab.Rows))
	}
	gmean := tab.Rows[len(tab.Rows)-1]
	if gmean[0] != "GMEAN" {
		t.Fatalf("last row should be the geometric mean, got %q", gmean[0])
	}
	// Columns: workload, By-NVM, FA-SRAM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE.
	hybrid := parseCell(t, gmean[3])
	baseFuse := parseCell(t, gmean[4])
	faFuse := parseCell(t, gmean[5])
	dyFuse := parseCell(t, gmean[6])
	if dyFuse <= 1.0 {
		t.Errorf("Dy-FUSE should beat L1-SRAM on average (Figure 13), got %v", dyFuse)
	}
	if dyFuse < faFuse*0.9 {
		t.Errorf("Dy-FUSE should not trail FA-FUSE significantly: %v vs %v", dyFuse, faFuse)
	}
	if faFuse <= hybrid {
		t.Errorf("FA-FUSE should beat the unoptimised Hybrid: %v vs %v", faFuse, hybrid)
	}
	if baseFuse <= hybrid*0.95 {
		t.Errorf("Base-FUSE should not be worse than Hybrid: %v vs %v", baseFuse, hybrid)
	}
}

func TestFig14MissRatesOrdered(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Fig14MissRate(m, []string{"ATAX"})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: workload, L1-SRAM, By-NVM, FA-SRAM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE.
	row := tab.Rows[0]
	l1 := parseCell(t, row[1])
	fafuse := parseCell(t, row[6])
	if fafuse >= l1 {
		t.Errorf("FA-FUSE should have a lower miss rate than L1-SRAM on ATAX: %v vs %v", fafuse, l1)
	}
	for i := 1; i < len(row); i++ {
		v := parseCell(t, row[i])
		if v < 0 || v > 1 {
			t.Errorf("miss rate out of range in column %d: %v", i, v)
		}
	}
}

func TestFig15StallsNormalised(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Fig15CacheStalls(m, []string{"FDTD"})
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	hybrid := parseCell(t, row[1])
	baseStt := parseCell(t, row[2])
	if hybrid != 1 && hybrid != 0 {
		t.Errorf("Hybrid's own stalls should normalise to 1 (or 0 when none), got %v", hybrid)
	}
	if baseStt > hybrid {
		t.Errorf("Base-FUSE should not have more STT stalls than Hybrid: %v vs %v", baseStt, hybrid)
	}
}

func TestFig16AccuracyFractions(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Fig16PredictorAccuracy(m, []string{"GESUM"})
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	tr := parseCell(t, row[1])
	nu := parseCell(t, row[2])
	fa := parseCell(t, row[3])
	sum := tr + nu + fa
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("fractions should sum to 1, got %v", sum)
	}
	if fa > 0.5 {
		t.Errorf("false predictions should be a minority, got %v", fa)
	}
}

func TestFig17EnergyShape(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Fig17L1DEnergy(m, []string{"ATAX"})
	if err != nil {
		t.Fatal(err)
	}
	gmean := tab.Rows[len(tab.Rows)-1]
	dy := parseCell(t, gmean[4])
	if dy <= 0 {
		t.Errorf("Dy-FUSE energy ratio should be positive, got %v", dy)
	}
	// On the irregular, long-running-on-SRAM workloads the hybrid caches
	// spend less L1D energy than the SRAM baseline (Figure 17's ATAX/BICG
	// observation).
	if dy >= 3 {
		t.Errorf("Dy-FUSE L1D energy should not explode relative to L1-SRAM, got %v", dy)
	}
}

func TestFig1OffChip(t *testing.T) {
	m := NewMatrix(QuickScale)
	tab, err := Run(m, ExpFig1, []string{"ATAX", "pathf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 2 workloads + MEAN, got %d rows", len(tab.Rows))
	}
	atax := parseCell(t, tab.Rows[0][3])
	pathf := parseCell(t, tab.Rows[1][3])
	if atax <= pathf {
		t.Errorf("ATAX should be more off-chip bound than pathf: %v vs %v", atax, pathf)
	}
}

func TestFig3MotivationShape(t *testing.T) {
	m := NewMatrix(Scale{InstructionsPerWarp: 150, SMs: 1, Seed: 42})
	tab, err := Run(m, ExpFig3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("Figure 3 covers 7 workloads, got %d", len(tab.Rows))
	}
	betterIPC := 0
	for _, row := range tab.Rows {
		missVanilla := parseCell(t, row[1])
		missOracle := parseCell(t, row[3])
		ipcOracle := parseCell(t, row[6])
		if missOracle > missVanilla+1e-9 {
			t.Errorf("%s: oracle miss rate should not exceed vanilla (%v vs %v)", row[0], missOracle, missVanilla)
		}
		if ipcOracle > 1 {
			betterIPC++
		}
	}
	if betterIPC < 5 {
		t.Errorf("the oracle cache should speed up most motivation workloads, only %d/7", betterIPC)
	}
}

func TestFig6Table(t *testing.T) {
	tab, err := Fig6ReadLevelAnalysis([]string{"ATAX", "PVC"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	ataxWORM := parseCell(t, tab.Rows[0][3]) + parseCell(t, tab.Rows[0][4])
	pvcWM := parseCell(t, tab.Rows[1][1])
	ataxWM := parseCell(t, tab.Rows[0][1])
	if ataxWORM < 0.6 {
		t.Errorf("ATAX should be WORM/WORO dominated, got %v", ataxWORM)
	}
	if pvcWM <= ataxWM {
		t.Errorf("PVC should have a larger WM fraction than ATAX: %v vs %v", pvcWM, ataxWM)
	}
	if _, err := Fig6ReadLevelAnalysis([]string{"bogus"}, 42); err == nil {
		t.Errorf("unknown workload should fail")
	}
}

func TestTable1AndTable3(t *testing.T) {
	t1 := Table1Configuration()
	if len(t1.Rows) != len(config.AllL1DKinds)+1 {
		t.Errorf("Table I should list all 7 configurations plus the GPU row, got %d", len(t1.Rows))
	}
	if !strings.Contains(t1.String(), "Dy-FUSE") {
		t.Errorf("Table I should mention Dy-FUSE")
	}
	t3 := Table3Area()
	if !strings.Contains(t3.String(), "NVM-CBF") || !strings.Contains(t3.String(), "TOTAL") {
		t.Errorf("Table III should list the FUSE structures and totals")
	}
}

func TestFig20CBF(t *testing.T) {
	tab, err := Fig20CBFFalsePositives(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Figure 20 covers 9 workloads, got %d", len(tab.Rows))
	}
	// More hash functions and more slots should not increase the
	// false-positive rate (averaged across workloads).
	var h1, h3, s32, s128 float64
	for _, row := range tab.Rows {
		h1 += parseCell(t, row[1])
		h3 += parseCell(t, row[3])
		s32 += parseCell(t, row[6])
		s128 += parseCell(t, row[8])
	}
	if h3 > h1 {
		t.Errorf("3 hash functions should not have more false positives than 1: %v vs %v", h3, h1)
	}
	if s128 > s32 {
		t.Errorf("128 slots should not have more false positives than 32: %v vs %v", s128, s32)
	}
}

func TestRunDispatch(t *testing.T) {
	m := NewMatrix(QuickScale)
	for _, name := range []string{ExpTable1, ExpTable3} {
		tab, err := Run(m, name, nil)
		if err != nil || tab == nil {
			t.Errorf("Run(%s): %v", name, err)
		}
	}
	if _, err := Run(m, "not-an-experiment", nil); err == nil {
		t.Errorf("unknown experiment should fail")
	}
	if len(AllExperiments()) != 16 {
		t.Errorf("expected 16 experiments (15 paper artefacts + the backend sweep), got %d", len(AllExperiments()))
	}
	for _, name := range AllExperiments() {
		if _, ok := figures[name]; !ok {
			t.Errorf("experiment %s has no declaration", name)
		}
	}
	if len(figures) != len(AllExperiments()) {
		t.Errorf("%d declarations for %d experiments", len(figures), len(AllExperiments()))
	}
	if len(AllWorkloads()) != 21 {
		t.Errorf("expected 21 workloads, got %d", len(AllWorkloads()))
	}
	tab, err := Run(m, ExpFig16, []string{"pathf"})
	if err != nil || len(tab.Rows) == 0 {
		t.Errorf("Run(fig16): %v", err)
	}
}

func TestParallelMatrixByteIdenticalToSerial(t *testing.T) {
	// The engine's headline guarantee at the experiment layer: a figure
	// built from a parallel pre-warmed matrix renders byte-identically to
	// one built serially.
	serial := NewMatrixRunner(QuickScale, engine.New(engine.Config{Workers: 1}))
	serialTab, err := Fig13NormalizedIPC(serial, smallWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewMatrixRunner(QuickScale, engine.New(engine.Config{Workers: 4}))
	if err := parallel.Prewarm(context.Background(), []string{ExpFig13}, smallWorkloads); err != nil {
		t.Fatal(err)
	}
	parallelTab, err := Fig13NormalizedIPC(parallel, smallWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	if serialTab.String() != parallelTab.String() {
		t.Errorf("parallel figure 13 differs from serial:\nserial:\n%s\nparallel:\n%s",
			serialTab.String(), parallelTab.String())
	}
}

func TestPrewarmFillsCacheCompletely(t *testing.T) {
	// After pre-warming an experiment's declared job set, building the
	// figure must be a pure cache read: no new simulations.
	m := NewMatrix(QuickScale)
	if err := m.Prewarm(context.Background(), []string{ExpFig13}, smallWorkloads); err != nil {
		t.Fatal(err)
	}
	runs := m.Runs()
	if want := 7 * len(smallWorkloads); runs != want { // L1-SRAM + 6 kinds
		t.Errorf("pre-warm should run the full matrix: %d runs, want %d", runs, want)
	}
	if _, err := Fig13NormalizedIPC(m, smallWorkloads); err != nil {
		t.Fatal(err)
	}
	if m.Runs() != runs {
		t.Errorf("figure build after pre-warm should add no runs: %d -> %d", runs, m.Runs())
	}

	// Figure 14 shares figure 13's matrix completely.
	if _, err := Fig14MissRate(m, smallWorkloads); err != nil {
		t.Fatal(err)
	}
	if m.Runs() != runs {
		t.Errorf("figure 14 should reuse figure 13's runs: %d -> %d", runs, m.Runs())
	}
}

func TestJobsDeclarationsMatchFigureDemand(t *testing.T) {
	// For every simulation-backed experiment, the declared job set must
	// cover everything the figure function requests: after Prewarm, the
	// figure build must not add a single run. Tiny scale keeps this cheap.
	scale := Scale{InstructionsPerWarp: 100, SMs: 1, Seed: 42}
	workloads := []string{"ATAX", "pathf"}
	for _, name := range AllExperiments() {
		m := NewMatrix(scale)
		if err := m.Prewarm(context.Background(), []string{name}, workloads); err != nil {
			t.Fatalf("%s: prewarm: %v", name, err)
		}
		runs := m.Runs()
		if _, err := RunContext(context.Background(), m, name, workloads); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Runs() != runs {
			t.Errorf("%s: figure build ran %d simulations missing from its Jobs declaration",
				name, m.Runs()-runs)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMatrix(QuickScale)
	if _, err := RunContext(ctx, m, ExpFig13, smallWorkloads); err == nil {
		t.Errorf("cancelled context should abort the experiment")
	}
	if m.Runs() != 0 {
		t.Errorf("cancelled prewarm should complete no runs, got %d", m.Runs())
	}
}

func TestScaleOptions(t *testing.T) {
	o := QuickScale.Options()
	if o.InstructionsPerWarp != QuickScale.InstructionsPerWarp || o.SMOverride != QuickScale.SMs || o.Seed != QuickScale.Seed {
		t.Errorf("Options() should mirror the scale: %+v", o)
	}
	if _, err := sim.RunWorkload(config.L1SRAM, "pathf", QuickScale.Options()); err != nil {
		t.Errorf("RunWorkload: %v", err)
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		name string
		want Scale
	}{{"quick", QuickScale}, {"bench", BenchScale}, {"full", FullScale}} {
		if got, err := ParseScale(c.name); err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	_, err := ParseScale("huge")
	if want := `unknown scale "huge" (want quick, bench or full)`; err == nil || err.Error() != want {
		t.Errorf("ParseScale(huge) error = %v, want %q", err, want)
	}
}

// Package fusebench is the benchmark harness of the repository: one
// testing.B benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates the corresponding artefact (at a reduced but
// representative simulation scale) and reports the headline quantity of that
// artefact as a custom benchmark metric, so that
//
//	go test -bench=. -benchmem
//
// prints, next to the usual ns/op, the reproduced numbers (geometric-mean
// speedups, miss rates, accuracy fractions, false-positive rates, transistor
// counts). EXPERIMENTS.md records how these compare with the paper.
package fusebench

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"fuse/internal/area"
	"fuse/internal/config"
	"fuse/internal/energy"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/trace"
)

// benchScale is the per-run simulation scale used by the benchmarks. It keeps
// a full figure regeneration in the tens of seconds; use cmd/fusetables
// -scale full for the 15-SM version.
var benchScale = experiments.BenchScale

// benchWorkloads is the workload subset used by the per-figure benchmarks to
// keep the harness fast while covering the paper's main behaviour classes:
// irregular (ATAX, GESUM), high-APKI (GEMM), write-heavy (2MM, PVC), regular
// (2DCONV) and compute-bound (pathf).
var benchWorkloads = []string{"2DCONV", "2MM", "ATAX", "GESUM", "GEMM", "PVC", "pathf"}

// cell parses a numeric table cell.
func cell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("non-numeric cell %q: %v", s, err)
	}
	return v
}

// lastRow returns the last row of a table (the MEAN/GMEAN row for most
// figures).
func lastRow(t *stats.Table) []string { return t.Rows[len(t.Rows)-1] }

func BenchmarkFig01_OffchipOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpFig1, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		mean := lastRow(tab)
		b.ReportMetric(cell(b, mean[3]), "offchip-time-frac")
		b.ReportMetric(cell(b, mean[4]), "offchip-energy-frac")
	}
}

func BenchmarkFig03_MotivationCaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpFig3, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Average oracle speedup across the seven motivation workloads.
		var sum float64
		for _, row := range tab.Rows {
			sum += cell(b, row[6])
		}
		b.ReportMetric(sum/float64(len(tab.Rows)), "oracle-speedup")
	}
}

func BenchmarkFig06_ReadLevelAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6ReadLevelAnalysis(experiments.AllWorkloads(), 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, lastRow(tab)[3]), "mean-worm+woro-frac")
	}
}

func BenchmarkFig07_ApproxVsFullyAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpFig7, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range tab.Rows {
			sum += cell(b, row[1])
		}
		b.ReportMetric(sum/float64(len(tab.Rows)), "approx-vs-fa-ipc-ratio")
	}
}

func BenchmarkTable02_WorkloadCharacterisation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpTable2, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != len(benchWorkloads) {
			b.Fatalf("expected %d rows", len(benchWorkloads))
		}
	}
}

func BenchmarkFig13_NormalizedIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Fig13NormalizedIPC(m, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		gmean := lastRow(tab)
		// Columns: workload, By-NVM, FA-SRAM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE.
		b.ReportMetric(cell(b, gmean[1]), "bynvm-speedup")
		b.ReportMetric(cell(b, gmean[3]), "hybrid-speedup")
		b.ReportMetric(cell(b, gmean[5]), "fafuse-speedup")
		b.ReportMetric(cell(b, gmean[6]), "dyfuse-speedup")
	}
}

func BenchmarkFig14_MissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Fig14MissRate(m, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		mean := lastRow(tab)
		b.ReportMetric(cell(b, mean[1]), "l1sram-missrate")
		b.ReportMetric(cell(b, mean[7]), "dyfuse-missrate")
	}
}

func BenchmarkFig15_CacheStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Fig15CacheStalls(m, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		var hybrid, base float64
		for _, row := range tab.Rows {
			hybrid += cell(b, row[1])
			base += cell(b, row[2])
		}
		n := float64(len(tab.Rows))
		b.ReportMetric(base/n/max(hybrid/n, 1e-9), "basefuse-stall-ratio")
	}
}

func BenchmarkFig16_PredictorAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Fig16PredictorAccuracy(m, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, lastRow(tab)[1]), "true+neutral-frac")
	}
}

func BenchmarkFig17_L1DEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Fig17L1DEnergy(m, benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		gmean := lastRow(tab)
		b.ReportMetric(cell(b, gmean[1]), "bynvm-energy-ratio")
		b.ReportMetric(cell(b, gmean[4]), "dyfuse-energy-ratio")
	}
}

func BenchmarkFig18_RatioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpFig18, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Mean normalised IPC of the 1/2 split across the nine workloads.
		var half float64
		for _, row := range tab.Rows {
			half += cell(b, row[4])
		}
		b.ReportMetric(half/float64(len(tab.Rows)), "half-split-ipc-vs-1/16")
	}
}

func BenchmarkFig19_VoltaGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.NewMatrix(benchScale)
		tab, err := experiments.Run(m, experiments.ExpFig19, []string{"ATAX", "2MM", "GESUM"})
		if err != nil {
			b.Fatal(err)
		}
		gmean := lastRow(tab)
		b.ReportMetric(cell(b, gmean[5]), "volta-dyfuse-speedup")
	}
}

func BenchmarkFig20_CBFFalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig20CBFFalsePositives(42)
		if err != nil {
			b.Fatal(err)
		}
		var h1, h3 float64
		for _, row := range tab.Rows {
			h1 += cell(b, row[1])
			h3 += cell(b, row[3])
		}
		n := float64(len(tab.Rows))
		b.ReportMetric(h1/n, "fp-rate-1hash")
		b.ReportMetric(h3/n, "fp-rate-3hash")
	}
}

func BenchmarkTable03_Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table3Area()
		b.ReportMetric(float64(area.DyFUSE().Total()), "dyfuse-transistors")
		b.ReportMetric(area.OverheadPercent(), "overhead-pct")
	}
}

// BenchmarkFig13_FullMatrix measures the engine's batch execution of the
// complete figure-13 matrix (all 7 L1D configurations x all 21 workloads at
// BenchScale) with a serial worker pool versus a full-width one. On a
// multi-core machine the parallel sub-benchmark shows near-linear speedup;
// on any machine the parallel run must render a byte-identical table to the
// serial one, which the benchmark asserts (the workers=1 sub-benchmark runs
// first and records the reference output).
func BenchmarkFig13_FullMatrix(b *testing.B) {
	workerCounts := []int{1, max(2, runtime.GOMAXPROCS(0))}
	var serialRef string
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := experiments.NewMatrixRunner(benchScale, engine.New(engine.Config{Workers: workers}))
				if err := m.Prewarm(context.Background(), []string{experiments.ExpFig13}, nil); err != nil {
					b.Fatal(err)
				}
				tab, err := experiments.Fig13NormalizedIPC(m, experiments.AllWorkloads())
				if err != nil {
					b.Fatal(err)
				}
				out := tab.String()
				if workers == 1 && serialRef == "" {
					serialRef = out
				}
				if serialRef != "" && out != serialRef {
					b.Fatalf("workers=%d table output differs from the serial reference", workers)
				}
				b.ReportMetric(float64(m.Runs()), "sims")
			}
		})
	}
}

// BenchmarkSingleSimulation measures the raw simulator throughput (cycles
// simulated per second) of one Dy-FUSE run — the cost of the cycle engine
// itself. Every iteration builds its simulator with sim.New, so allocations
// per op include the construction of its buffers; each iteration must
// reproduce the first one's cycle count and IPC.
func BenchmarkSingleSimulation(b *testing.B) {
	prof, _ := trace.ProfileByName("ATAX")
	var refCycles int64
	var refIPC float64
	for i := 0; i < b.N; i++ {
		gpuCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
		s, err := sim.New(gpuCfg, trace.Synthetic(prof), benchScale.Options())
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if i == 0 {
			refCycles, refIPC = res.Cycles, res.IPC
		}
		if res.Cycles != refCycles || res.IPC != refIPC {
			b.Fatalf("iteration %d diverged: cycles=%d ipc=%v, want cycles=%d ipc=%v",
				i, res.Cycles, res.IPC, refCycles, refIPC)
		}
		b.ReportMetric(float64(res.Cycles), "cycles")
		b.ReportMetric(res.IPC, "ipc")
	}
	b.ReportMetric(float64(refCycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkEnergyModel measures the energy-accounting overhead alone.
func BenchmarkEnergyModel(b *testing.B) {
	prof, _ := trace.ProfileByName("GESUM")
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	s, err := sim.New(gpuCfg, trace.Synthetic(prof), benchScale.Options())
	if err != nil {
		b.Fatal(err)
	}
	res := s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := energy.FromResult(res, gpuCfg)
		if br.Total() <= 0 {
			b.Fatal("energy should be positive")
		}
	}
}

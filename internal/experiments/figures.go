package experiments

import (
	"fmt"

	"fuse/internal/area"
	"fuse/internal/cbf"
	"fuse/internal/config"
	"fuse/internal/dram"
	"fuse/internal/energy"
	"fuse/internal/mem"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/trace"
)

// Shared GPU-config constructors. The figure functions and the Matrix's job
// declarations (Jobs in experiments.go) must build byte-identical
// configurations under the same labels, or the pre-warmed cache would miss;
// these helpers are the single source of both.

// oracleGPU is Figure 3's ideal very-large L1D.
func oracleGPU() config.GPUConfig { return config.FermiGPU(config.OracleL1D()) }

// idealFAGPU is Figure 7b's comparator-unconstrained fully-associative
// STT-MRAM bank: same geometry as FA-FUSE but without the approximation
// logic (tag search is free and exact).
func idealFAGPU() config.GPUConfig {
	ideal := config.NewL1DConfig(config.FAFUSE)
	ideal.ApproxFullyAssociative = false
	ideal.Comparators = 0
	ideal.CBFCount = 0
	ideal.CBFHashes = 0
	ideal.CBFSlots = 0
	return config.FermiGPU(ideal)
}

// voltaGPU is Figure 19's Volta-class GPU: the L1 budget is 128 KB, so every
// configuration is scaled by 4x.
func voltaGPU(kind config.L1DKind) config.GPUConfig {
	return config.VoltaGPU(config.ScaleL1D(config.NewL1DConfig(kind), 4))
}

// ratioPoints are Figure 18's SRAM-fraction sweep points.
var ratioPoints = []struct {
	label string
	frac  float64
}{
	{"1/16", 1.0 / 16}, {"1/8", 1.0 / 8}, {"1/4", 1.0 / 4}, {"1/2", 1.0 / 2}, {"3/4", 3.0 / 4},
}

// ratioGPU builds the Dy-FUSE configuration with the given SRAM fraction.
func ratioGPU(frac float64) (config.GPUConfig, error) {
	cfg, err := config.WithRatio(config.DyFUSE, frac)
	if err != nil {
		return config.GPUConfig{}, err
	}
	return config.FermiGPU(cfg), nil
}

// fig17Kinds is the configuration order of Figure 17.
var fig17Kinds = []config.L1DKind{config.ByNVM, config.BaseFUSE, config.FAFUSE, config.DyFUSE}

// fig19Kinds is the configuration order of Figure 19.
var fig19Kinds = []config.L1DKind{config.ByNVM, config.Hybrid, config.BaseFUSE, config.FAFUSE, config.DyFUSE}

// Fig1OffChipOverheads reproduces Figure 1: the fraction of execution time
// and of GPU energy spent servicing off-chip memory accesses on the baseline
// L1-SRAM GPU.
func Fig1OffChipOverheads(m *Matrix, workloads []string) (*stats.Table, error) {
	t := stats.NewTable("Figure 1: off-chip overhead on the baseline GPU",
		"workload", "time.network", "time.dram", "time.offchip", "energy.offchip")
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	var timeFracs, energyFracs []float64
	for _, w := range workloads {
		res, err := m.Get(config.L1SRAM, w)
		if err != nil {
			return nil, err
		}
		e := energy.FromResult(res, gpuCfg)
		t.AddRowValues(w, res.NetworkFraction, res.DRAMFraction, res.OffChipFraction, e.OffChipFraction())
		timeFracs = append(timeFracs, res.OffChipFraction)
		energyFracs = append(energyFracs, e.OffChipFraction())
	}
	t.AddRowValues("MEAN", 0, 0, stats.Mean(timeFracs), stats.Mean(energyFracs))
	return t, nil
}

// Fig3Motivation reproduces Figure 3: L1D miss rate and IPC (normalised to
// the Vanilla GPU) for the Vanilla, pure-STT-MRAM and Oracle caches on the
// seven memory-intensive motivation workloads.
func Fig3Motivation(m *Matrix) (*stats.Table, error) {
	t := stats.NewTable("Figure 3: motivation (Vanilla vs STT-MRAM vs Oracle)",
		"workload", "miss.vanilla", "miss.sttmram", "miss.oracle", "ipc.vanilla", "ipc.sttmram", "ipc.oracle")
	oracle := oracleGPU()
	for _, w := range trace.MotivationWorkloads() {
		vanilla, err := m.Get(config.L1SRAM, w)
		if err != nil {
			return nil, err
		}
		stt, err := m.Get(config.ByNVM, w)
		if err != nil {
			return nil, err
		}
		res, err := m.GetCustom("oracle", oracle, w)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(w,
			vanilla.L1DMissRate, stt.L1DMissRate, res.L1DMissRate,
			1.0, stt.SpeedupOver(vanilla), res.SpeedupOver(vanilla))
	}
	return t, nil
}

// Fig6ReadLevelAnalysis reproduces Figure 6: the fraction of data blocks in
// each read-level category per workload.
func Fig6ReadLevelAnalysis(workloads []string, seed uint64) (*stats.Table, error) {
	t := stats.NewTable("Figure 6: read-level analysis (fraction of data blocks)",
		"workload", "WM", "read-intensive", "WORM", "WORO", "write-fraction")
	const instructions = 400000
	var worm []float64
	for _, w := range workloads {
		prof, ok := trace.ProfileByName(w)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", w)
		}
		bp := trace.AnalyzeProfile(prof, instructions, seed)
		t.AddRowValues(w,
			bp.Fractions[mem.WriteMultiple], bp.Fractions[mem.ReadIntensive],
			bp.Fractions[mem.WORM], bp.Fractions[mem.WORO], bp.WriteFraction)
		worm = append(worm, bp.Fractions[mem.WORM]+bp.Fractions[mem.WORO])
	}
	t.AddRowValues("MEAN(WORM+WORO)", 0, 0, stats.Mean(worm))
	return t, nil
}

// Fig7ApproxVsFullyAssociative reproduces Figure 7b: IPC of the
// associativity-approximation logic relative to an ideal fully-associative
// STT-MRAM bank, per benchmark suite.
func Fig7ApproxVsFullyAssociative(m *Matrix) (*stats.Table, error) {
	t := stats.NewTable("Figure 7b: approximation vs. ideal fully-associative STT-MRAM bank",
		"suite", "ipc.approx/ipc.fullyassoc")
	idealGPU := idealFAGPU()
	for _, suite := range trace.Suites() {
		var ratios []float64
		for _, w := range trace.BySuite(suite) {
			approx, err := m.Get(config.FAFUSE, w)
			if err != nil {
				return nil, err
			}
			full, err := m.GetCustom("ideal-fa", idealGPU, w)
			if err != nil {
				return nil, err
			}
			if full.IPC > 0 {
				ratios = append(ratios, approx.IPC/full.IPC)
			}
		}
		t.AddRowValues(suite, stats.GeoMean(ratios))
	}
	return t, nil
}

// Table1Configuration reproduces Table I: the simulated GPU and L1D
// configuration parameters.
func Table1Configuration() *stats.Table {
	t := stats.NewTable("Table I: GPU simulation configuration",
		"config", "SRAM KB", "STT KB", "SRAM sets x ways", "STT sets x ways",
		"swap buf", "tag queue", "CBFs", "predictor")
	for _, kind := range config.AllL1DKinds {
		cfg := config.NewL1DConfig(kind)
		pred := "no"
		if cfg.UseReadLevelPredictor {
			pred = "yes"
		}
		if cfg.UseDeadWriteBypass {
			pred = "dead-write"
		}
		t.AddRow(kind.String(),
			fmt.Sprintf("%d", cfg.SRAMKB), fmt.Sprintf("%d", cfg.STTMRAMKB),
			fmt.Sprintf("%dx%d", cfg.SRAMSets, cfg.SRAMWays),
			fmt.Sprintf("%dx%d", cfg.STTSets, cfg.STTWays),
			fmt.Sprintf("%d", cfg.SwapBufferEntries),
			fmt.Sprintf("%d", cfg.TagQueueEntries),
			fmt.Sprintf("%d", cfg.CBFCount), pred)
	}
	g := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	t.AddRow("GPU", fmt.Sprintf("%d SMs", g.SMs), fmt.Sprintf("%d warps/SM", g.WarpsPerSM),
		fmt.Sprintf("L2 %d KB x %d banks", g.L2KBTotal, g.L2Banks),
		fmt.Sprintf("%d DRAM ch", g.DRAMChannels),
		fmt.Sprintf("tCL=%d", g.TCL), fmt.Sprintf("tRCD=%d", g.TRCD), fmt.Sprintf("tRAS=%d", g.TRAS), "")
	return t
}

// Table2Workloads reproduces Table II: per-workload APKI and By-NVM bypass
// ratio (measured alongside the paper's reported values).
func Table2Workloads(m *Matrix, workloads []string) (*stats.Table, error) {
	t := stats.NewTable("Table II: workload characterisation",
		"workload", "suite", "APKI(paper)", "APKI(measured)", "bypass(paper)", "bypass(measured)")
	for _, w := range workloads {
		prof, ok := trace.ProfileByName(w)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", w)
		}
		bp := trace.AnalyzeProfile(prof, 200000, m.scale.Seed)
		res, err := m.Get(config.ByNVM, w)
		if err != nil {
			return nil, err
		}
		measuredBypass := 0.0
		if total := res.L1D.Misses + res.L1D.Bypasses; total > 0 {
			measuredBypass = float64(res.L1D.Bypasses) / float64(total)
		}
		t.AddRow(w, prof.Suite,
			stats.FormatFloat(prof.APKI), stats.FormatFloat(bp.MeasuredAPKI),
			stats.FormatFloat(prof.PaperBypassRatio), stats.FormatFloat(measuredBypass))
	}
	return t, nil
}

// Fig13NormalizedIPC reproduces Figure 13: IPC of the six non-baseline L1D
// configurations normalised to L1-SRAM, per workload plus the geometric mean.
func Fig13NormalizedIPC(m *Matrix, workloads []string) (*stats.Table, error) {
	t := stats.NewTable("Figure 13: IPC normalised to L1-SRAM",
		"workload", "By-NVM", "FA-SRAM", "Hybrid", "Base-FUSE", "FA-FUSE", "Dy-FUSE")
	speedups := make(map[config.L1DKind][]float64)
	for _, w := range workloads {
		base, err := m.Get(config.L1SRAM, w)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(fig13Kinds))
		for _, kind := range fig13Kinds {
			res, err := m.Get(kind, w)
			if err != nil {
				return nil, err
			}
			s := res.SpeedupOver(base)
			row = append(row, s)
			speedups[kind] = append(speedups[kind], s)
		}
		t.AddRowValues(w, row...)
	}
	gmeans := make([]float64, 0, len(fig13Kinds))
	for _, kind := range fig13Kinds {
		gmeans = append(gmeans, stats.GeoMean(speedups[kind]))
	}
	t.AddRowValues("GMEAN", gmeans...)
	return t, nil
}

// Fig14MissRate reproduces Figure 14: L1D miss rate of all seven
// configurations per workload.
func Fig14MissRate(m *Matrix, workloads []string) (*stats.Table, error) {
	kinds := append([]config.L1DKind{config.L1SRAM}, fig13Kinds...)
	cols := []string{"workload"}
	for _, k := range kinds {
		cols = append(cols, k.String())
	}
	t := stats.NewTable("Figure 14: L1D miss rate", cols...)
	sums := make([]float64, len(kinds))
	for _, w := range workloads {
		row := make([]float64, 0, len(kinds))
		for i, kind := range kinds {
			res, err := m.Get(kind, w)
			if err != nil {
				return nil, err
			}
			row = append(row, res.L1DMissRate)
			sums[i] += res.L1DMissRate
		}
		t.AddRowValues(w, row...)
	}
	if len(workloads) > 0 {
		means := make([]float64, len(kinds))
		for i := range sums {
			means[i] = sums[i] / float64(len(workloads))
		}
		t.AddRowValues("MEAN", means...)
	}
	return t, nil
}

// Fig15CacheStalls reproduces Figure 15: L1D stall cycles caused by STT-MRAM
// writes and tag searching in Hybrid, Base-FUSE and FA-FUSE, normalised to
// the STT-MRAM stalls of Hybrid.
func Fig15CacheStalls(m *Matrix, workloads []string) (*stats.Table, error) {
	t := stats.NewTable("Figure 15: L1D stalls normalised to Hybrid's STT-MRAM stalls",
		"workload", "Hybrid.stt", "BaseFUSE.stt", "BaseFUSE.tag", "FAFUSE.stt", "FAFUSE.tag")
	for _, w := range workloads {
		hybrid, err := m.Get(config.Hybrid, w)
		if err != nil {
			return nil, err
		}
		base, err := m.Get(config.BaseFUSE, w)
		if err != nil {
			return nil, err
		}
		fa, err := m.Get(config.FAFUSE, w)
		if err != nil {
			return nil, err
		}
		norm := float64(hybrid.STTWriteStalls)
		if norm == 0 {
			norm = 1
		}
		t.AddRowValues(w,
			float64(hybrid.STTWriteStalls)/norm,
			float64(base.STTWriteStalls)/norm,
			float64(base.TagSearchStalls)/norm,
			float64(fa.STTWriteStalls)/norm,
			float64(fa.TagSearchStalls)/norm)
	}
	return t, nil
}

// Fig16PredictorAccuracy reproduces Figure 16: the true/neutral/false
// fractions of the Dy-FUSE read-level predictor per workload.
func Fig16PredictorAccuracy(m *Matrix, workloads []string) (*stats.Table, error) {
	t := stats.NewTable("Figure 16: read-level predictor accuracy",
		"workload", "true", "neutral", "false")
	var trues []float64
	for _, w := range workloads {
		res, err := m.Get(config.DyFUSE, w)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(w, res.PredTrue, res.PredNeutral, res.PredFalse)
		trues = append(trues, res.PredTrue+res.PredNeutral)
	}
	t.AddRowValues("MEAN(true+neutral)", stats.Mean(trues))
	return t, nil
}

// Fig17L1DEnergy reproduces Figure 17: L1D energy of By-NVM, Base-FUSE,
// FA-FUSE and Dy-FUSE normalised to L1-SRAM.
func Fig17L1DEnergy(m *Matrix, workloads []string) (*stats.Table, error) {
	kinds := fig17Kinds
	t := stats.NewTable("Figure 17: L1D energy normalised to L1-SRAM",
		"workload", "By-NVM", "Base-FUSE", "FA-FUSE", "Dy-FUSE")
	geo := make(map[config.L1DKind][]float64)
	for _, w := range workloads {
		base, err := m.Get(config.L1SRAM, w)
		if err != nil {
			return nil, err
		}
		baseGPU := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
		baseEnergy := energy.FromResult(base, baseGPU).L1DTotal()
		if baseEnergy == 0 {
			baseEnergy = 1
		}
		row := make([]float64, 0, len(kinds))
		for _, kind := range kinds {
			res, err := m.Get(kind, w)
			if err != nil {
				return nil, err
			}
			gpuCfg := config.FermiGPU(config.NewL1DConfig(kind))
			e := energy.FromResult(res, gpuCfg).L1DTotal()
			row = append(row, e/baseEnergy)
			geo[kind] = append(geo[kind], e/baseEnergy)
		}
		t.AddRowValues(w, row...)
	}
	gmeans := make([]float64, 0, len(kinds))
	for _, kind := range kinds {
		gmeans = append(gmeans, stats.GeoMean(geo[kind]))
	}
	t.AddRowValues("GMEAN", gmeans...)
	return t, nil
}

// Fig18RatioSweep reproduces Figure 18: IPC and L1D miss rate of Dy-FUSE
// under different SRAM:STT-MRAM area splits, normalised to the 1/16 split.
func Fig18RatioSweep(m *Matrix) (*stats.Table, error) {
	ratios := ratioPoints
	t := stats.NewTable("Figure 18: SRAM fraction sweep (Dy-FUSE), IPC normalised to 1/16 and miss rate",
		"workload", "ipc 1/16", "ipc 1/8", "ipc 1/4", "ipc 1/2", "ipc 3/4",
		"miss 1/16", "miss 1/8", "miss 1/4", "miss 1/2", "miss 3/4")
	for _, w := range trace.RatioSweepWorkloads() {
		ipcs := make([]float64, 0, len(ratios))
		misses := make([]float64, 0, len(ratios))
		for _, r := range ratios {
			cfg, err := ratioGPU(r.frac)
			if err != nil {
				return nil, err
			}
			res, err := m.GetCustom("ratio-"+r.label, cfg, w)
			if err != nil {
				return nil, err
			}
			ipcs = append(ipcs, res.IPC)
			misses = append(misses, res.L1DMissRate)
		}
		base := ipcs[0]
		if base == 0 {
			base = 1
		}
		row := make([]float64, 0, 2*len(ratios))
		for _, v := range ipcs {
			row = append(row, v/base)
		}
		row = append(row, misses...)
		t.AddRowValues(w, row...)
	}
	return t, nil
}

// Fig19Volta reproduces Figure 19: IPC of the configurations on a Volta-class
// GPU (84 SMs, 6 MB L2, 128 KB L1 budget), normalised to L1-SRAM.
func Fig19Volta(m *Matrix, workloads []string) (*stats.Table, error) {
	kinds := fig19Kinds
	t := stats.NewTable("Figure 19: Volta-class GPU, IPC normalised to L1-SRAM",
		"workload", "By-NVM", "Hybrid", "Base-FUSE", "FA-FUSE", "Dy-FUSE")
	geo := make(map[config.L1DKind][]float64)
	for _, w := range workloads {
		base, err := m.GetCustom("volta-L1-SRAM", voltaGPU(config.L1SRAM), w)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(kinds))
		for _, kind := range kinds {
			res, err := m.GetCustom("volta-"+kind.String(), voltaGPU(kind), w)
			if err != nil {
				return nil, err
			}
			s := res.SpeedupOver(base)
			row = append(row, s)
			geo[kind] = append(geo[kind], s)
		}
		t.AddRowValues(w, row...)
	}
	gmeans := make([]float64, 0, len(kinds))
	for _, kind := range kinds {
		gmeans = append(gmeans, stats.GeoMean(geo[kind]))
	}
	t.AddRowValues("GMEAN", gmeans...)
	return t, nil
}

// Fig20CBFFalsePositives reproduces Figure 20: the CBF false-positive rate as
// a function of the number of hash functions (a) and of counter slots (b).
// The CBFs guard a 512-block fully-associative STT-MRAM bank whose contents
// are driven by each workload's block stream.
func Fig20CBFFalsePositives(seed uint64) (*stats.Table, error) {
	t := stats.NewTable("Figure 20: CBF false-positive rate",
		"workload", "1 hash", "2 hash", "3 hash", "4 hash", "5 hash",
		"32 slots", "64 slots", "128 slots")
	const (
		bankBlocks   = 512
		instructions = 150000
	)
	measure := func(prof trace.Profile, hashes, slots int) float64 {
		filter := cbf.NewNVMCBF(128, slots, hashes)
		k := trace.NewKernel(prof, 0, seed)
		resident := make([]uint64, 0, bankBlocks)
		inBank := make(map[uint64]bool, bankBlocks)
		var tests, falsePositives int
		for i := 0; i < instructions; i++ {
			ins := k.Next(i % 48)
			if !ins.IsMem {
				continue
			}
			b := mem.BlockAlign(ins.Addr)
			tests++
			if filter.Test(b) && !inBank[b] {
				falsePositives++
			}
			if inBank[b] {
				continue
			}
			// Fill the bank, evicting FIFO.
			if len(resident) >= bankBlocks {
				victim := resident[0]
				resident = resident[1:]
				delete(inBank, victim)
				filter.Remove(victim)
			}
			resident = append(resident, b)
			inBank[b] = true
			filter.Insert(b)
		}
		if tests == 0 {
			return 0
		}
		return float64(falsePositives) / float64(tests)
	}
	for _, w := range trace.CBFStudyWorkloads() {
		prof, ok := trace.ProfileByName(w)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", w)
		}
		row := make([]float64, 0, 8)
		for _, h := range []int{1, 2, 3, 4, 5} {
			row = append(row, measure(prof, h, 128))
		}
		for _, s := range []int{32, 64, 128} {
			row = append(row, measure(prof, 3, s))
		}
		t.AddRowValues(w, row...)
	}
	return t, nil
}

// Table3Area reproduces Table III: the transistor-count area estimation of
// the L1-SRAM baseline and the Dy-FUSE cache.
func Table3Area() *stats.Table {
	t := stats.NewTable("Table III: area estimation (transistors)",
		"component", "L1-SRAM", "Dy-FUSE")
	base := area.L1SRAM()
	fuse := area.DyFUSE()
	names := []string{}
	seen := map[string]bool{}
	for _, c := range append(append([]area.Component{}, base.Components...), fuse.Components...) {
		if !seen[c.Name] {
			seen[c.Name] = true
			names = append(names, c.Name)
		}
	}
	for _, n := range names {
		b, _ := base.Lookup(n)
		f, _ := fuse.Lookup(n)
		t.AddRow(n, fmt.Sprintf("%d", b), fmt.Sprintf("%d", f))
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d", base.Total()), fmt.Sprintf("%d", fuse.Total()))
	t.AddRow("overhead", "-", fmt.Sprintf("%.2f%%", area.OverheadPercent()))
	return t
}

// BackendSweep is the repository's DeepNVM++-style extension: the paper's
// full Dy-FUSE proposal evaluated over every registered off-chip memory
// backend (GDDR5 baseline, GDDR5X, HBM2, an STT-MRAM main-memory point)
// behind the unchanged cache hierarchy. IPC is normalised to the GDDR5
// baseline; the energy columns are the memory controller's dynamic energy in
// micro-joules charged through the backend's per-command hooks.
func BackendSweep(m *Matrix, workloads []string) (*stats.Table, error) {
	backends := dram.Backends()
	cols := []string{"workload"}
	for _, be := range backends {
		cols = append(cols, "ipc."+be)
	}
	for _, be := range backends {
		cols = append(cols, "uJ."+be)
	}
	t := stats.NewTable("Backend sweep: Dy-FUSE across off-chip memory technologies (IPC normalised to GDDR5)", cols...)
	speedups := make([][]float64, len(backends))
	energies := make([][]float64, len(backends))
	for _, w := range workloads {
		results := make([]sim.Result, len(backends))
		for i, be := range backends {
			res, err := m.getBackend(be, w)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		vals := make([]float64, 0, 2*len(backends))
		for i, res := range results {
			s := res.SpeedupOver(results[0])
			speedups[i] = append(speedups[i], s)
			vals = append(vals, s)
		}
		for i, res := range results {
			uj := res.DRAMEnergyNJ / 1000
			energies[i] = append(energies[i], uj)
			vals = append(vals, uj)
		}
		t.AddRowValues(w, vals...)
	}
	means := make([]float64, 0, 2*len(backends))
	for i := range backends {
		means = append(means, stats.Mean(speedups[i]))
	}
	for i := range backends {
		means = append(means, stats.Mean(energies[i]))
	}
	t.AddRowValues("MEAN", means...)
	return t, nil
}

// helper used in tests to run a single simulation at a scale without a matrix.
func runOne(kind config.L1DKind, workload string, sc Scale) (sim.Result, error) {
	return sim.RunWorkload(kind, workload, sc.Options())
}

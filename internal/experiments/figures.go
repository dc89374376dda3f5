package experiments

import (
	"fmt"

	"fuse/internal/area"
	"fuse/internal/cbf"
	"fuse/internal/config"
	"fuse/internal/dram"
	"fuse/internal/energy"
	"fuse/internal/engine"
	"fuse/internal/mem"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/trace"
)

// figure is the one declaration of an experiment. Jobs and RunContext both
// lay its grid out workload-major: one job per (row, column).
type figure struct {
	// rows resolves the workloads from the caller's subset (nil asks for
	// the default set); nil for experiments that read no workloads.
	rows func(subset []string) []string
	// cols builds one job per configuration; nil for experiments that run
	// no simulations.
	cols []column
	// render builds the table; res[i][j] is the result of rows[i] on cols[j].
	render func(m *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error)
}

// column builds one configuration's job for a workload.
type column func(m *Matrix, workload string) engine.Job

// figures declares every experiment, by name.
var figures = map[string]figure{
	ExpFig1:   {rows: subsetOr(AllWorkloads), cols: kindColumns(config.L1SRAM), render: fig1},
	ExpFig3:   {rows: fixed(trace.MotivationWorkloads), cols: append(kindColumns(config.L1SRAM, config.ByNVM), customColumn("oracle", config.FermiGPU(config.OracleL1D()))), render: fig3},
	ExpFig6:   {rows: subsetOr(AllWorkloads), render: fig6},
	ExpFig7:   {rows: fixed(suiteWorkloads), cols: append(kindColumns(config.FAFUSE), customColumn("ideal-fa", idealFAGPU())), render: fig7},
	ExpTable1: {render: table1},
	ExpTable2: {rows: subsetOr(AllWorkloads), cols: kindColumns(config.ByNVM), render: table2},
	ExpFig13:  {rows: subsetOr(AllWorkloads), cols: kindColumns(fig13Kinds...), render: fig13},
	ExpFig14:  {rows: subsetOr(AllWorkloads), cols: kindColumns(fig13Kinds...), render: fig14},
	ExpFig15:  {rows: subsetOr(AllWorkloads), cols: kindColumns(config.Hybrid, config.BaseFUSE, config.FAFUSE), render: fig15},
	ExpFig16:  {rows: subsetOr(AllWorkloads), cols: kindColumns(config.DyFUSE), render: fig16},
	ExpFig17:  {rows: subsetOr(AllWorkloads), cols: kindColumns(fig17Kinds...), render: fig17},
	ExpFig18:  {rows: fixed(trace.RatioSweepWorkloads), cols: ratioColumns(), render: fig18},
	ExpFig19:  {rows: subsetOr(AllWorkloads), cols: voltaColumns(fig19Kinds), render: fig19},
	ExpFig20:  {render: fig20},
	ExpTable3: {render: table3},
	// The backend sweep is about off-chip behaviour: its default rows are
	// the memory-intensive motivation set, not the full matrix.
	ExpBackends: {rows: subsetOr(trace.MotivationWorkloads), cols: backendColumns(), render: backends},
}

// subsetOr resolves an experiment's rows as the caller's subset, or def when
// the caller passes none.
func subsetOr(def func() []string) func([]string) []string {
	return func(subset []string) []string {
		if subset == nil {
			return def()
		}
		return subset
	}
}

// fixed resolves an experiment's rows as its own set, whatever the caller's
// subset.
func fixed(set func() []string) func([]string) []string {
	return func([]string) []string { return set() }
}

// suiteWorkloads lists every suite's workloads, suite by suite.
func suiteWorkloads() []string {
	var ws []string
	for _, suite := range trace.Suites() {
		ws = append(ws, trace.BySuite(suite)...)
	}
	return ws
}

// kindColumns is one column per L1D kind on the Fermi-class GPU.
func kindColumns(kinds ...config.L1DKind) []column {
	cols := make([]column, len(kinds))
	for i, kind := range kinds {
		cols[i] = func(m *Matrix, w string) engine.Job { return m.job(kind, w) }
	}
	return cols
}

// customColumn is one column of a custom GPU configuration. The label names
// its jobs; the configuration identifies them.
func customColumn(label string, gpuCfg config.GPUConfig) column {
	return func(m *Matrix, w string) engine.Job { return m.customJob(label, gpuCfg, w) }
}

// voltaColumns is one column per L1D kind on Figure 19's Volta-class GPU:
// its L1 budget is 128 KB, so every configuration is scaled by 4x.
func voltaColumns(kinds []config.L1DKind) []column {
	cols := make([]column, len(kinds))
	for i, kind := range kinds {
		gpuCfg := config.VoltaGPU(config.ScaleL1D(config.NewL1DConfig(kind), 4))
		cols[i] = customColumn("volta-"+kind.String(), gpuCfg)
	}
	return cols
}

// ratioColumns is one Dy-FUSE column per Figure 18 SRAM-fraction point.
func ratioColumns() []column {
	cols := make([]column, len(ratioPoints))
	for i, r := range ratioPoints {
		l1d, err := config.WithRatio(config.DyFUSE, r.frac)
		if err != nil {
			panic(err) // the points are constant fractions in (0,1)
		}
		cols[i] = customColumn("ratio-"+r.label, config.FermiGPU(l1d))
	}
	return cols
}

// backendColumns is one column per registered memory backend: the paper's
// full Dy-FUSE proposal on the Fermi-class GPU. Its jobs pin their backend,
// bypassing any SetBackend override — the sweep's identity is its backend.
func backendColumns() []column {
	var cols []column
	for _, be := range dram.Backends() {
		cols = append(cols, func(m *Matrix, w string) engine.Job {
			return engine.BackendJob(config.DyFUSE, w, be, m.scale.Options())
		})
	}
	return cols
}

// Configuration orders of Figures 13/14, 17 and 19. The first kind of each
// is the baseline the others are normalised to.
var (
	fig13Kinds = []config.L1DKind{config.L1SRAM, config.ByNVM, config.FASRAM, config.Hybrid, config.BaseFUSE, config.FAFUSE, config.DyFUSE}
	fig17Kinds = []config.L1DKind{config.L1SRAM, config.ByNVM, config.BaseFUSE, config.FAFUSE, config.DyFUSE}
	fig19Kinds = []config.L1DKind{config.L1SRAM, config.ByNVM, config.Hybrid, config.BaseFUSE, config.FAFUSE, config.DyFUSE}
)

// header is a table's column names: the workload, then one per kind.
func header(kinds []config.L1DKind) []string {
	cols := []string{"workload"}
	for _, k := range kinds {
		cols = append(cols, k.String())
	}
	return cols
}

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

// ratioPoints are Figure 18's SRAM-fraction sweep points.
var ratioPoints = []struct {
	label string
	frac  float64
}{
	{"1/16", 1.0 / 16}, {"1/8", 1.0 / 8}, {"1/4", 1.0 / 4}, {"1/2", 1.0 / 2}, {"3/4", 3.0 / 4},
}

// The experiments that run no simulations render from their rows and the
// matrix's seed alone.
func fig6(m *Matrix, rows []string, _ [][]sim.Result) (*stats.Table, error) {
	return Fig6ReadLevelAnalysis(rows, m.scale.Seed)
}

func fig20(m *Matrix, _ []string, _ [][]sim.Result) (*stats.Table, error) {
	return Fig20CBFFalsePositives(m.scale.Seed)
}

func table1(*Matrix, []string, [][]sim.Result) (*stats.Table, error) {
	return Table1Configuration(), nil
}

func table3(*Matrix, []string, [][]sim.Result) (*stats.Table, error) {
	return Table3Area(), nil
}

// fig1 renders Figure 1: the fraction of execution time and of GPU energy
// spent servicing off-chip memory accesses on the baseline L1-SRAM GPU.
func fig1(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 1: off-chip overhead on the baseline GPU",
		"workload", "time.network", "time.dram", "time.offchip", "energy.offchip")
	gpuCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	var timeFracs, energyFracs []float64
	for i, w := range rows {
		r := res[i][0]
		e := energy.FromResult(r, gpuCfg)
		t.AddRowValues(w, r.NetworkFraction, r.DRAMFraction, r.OffChipFraction, e.OffChipFraction())
		timeFracs = append(timeFracs, r.OffChipFraction)
		energyFracs = append(energyFracs, e.OffChipFraction())
	}
	t.AddRowValues("MEAN", 0, 0, stats.Mean(timeFracs), stats.Mean(energyFracs))
	return t, nil
}

// fig3 renders Figure 3: L1D miss rate and IPC (normalised to the Vanilla
// GPU) for the Vanilla, pure-STT-MRAM and Oracle caches on the seven
// memory-intensive motivation workloads.
func fig3(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 3: motivation (Vanilla vs STT-MRAM vs Oracle)",
		"workload", "miss.vanilla", "miss.sttmram", "miss.oracle", "ipc.vanilla", "ipc.sttmram", "ipc.oracle")
	for i, w := range rows {
		vanilla, stt, oracle := res[i][0], res[i][1], res[i][2]
		t.AddRowValues(w,
			vanilla.L1DMissRate, stt.L1DMissRate, oracle.L1DMissRate,
			1.0, stt.SpeedupOver(vanilla), oracle.SpeedupOver(vanilla))
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

// fig7 renders Figure 7b: IPC of the associativity-approximation logic
// relative to an ideal fully-associative STT-MRAM bank, per benchmark suite.
func fig7(_ *Matrix, _ []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 7b: approximation vs. ideal fully-associative STT-MRAM bank",
		"suite", "ipc.approx/ipc.fullyassoc")
	i := 0 // the rows are suiteWorkloads, suite by suite
	for _, suite := range trace.Suites() {
		var ratios []float64
		for range trace.BySuite(suite) {
			approx, full := res[i][0], res[i][1]
			i++
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

// table2 renders Table II: per-workload APKI and By-NVM bypass ratio
// (measured alongside the paper's reported values).
func table2(m *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Table II: workload characterisation",
		"workload", "suite", "APKI(paper)", "APKI(measured)", "bypass(paper)", "bypass(measured)")
	for i, w := range rows {
		prof, ok := trace.ProfileByName(w)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", w)
		}
		bp := trace.AnalyzeProfile(prof, 200000, m.scale.Seed)
		l1d := res[i][0].L1D
		measuredBypass := 0.0
		if total := l1d.Misses + l1d.Bypasses; total > 0 {
			measuredBypass = float64(l1d.Bypasses) / float64(total)
		}
		t.AddRow(w, prof.Suite,
			stats.FormatFloat(prof.APKI), stats.FormatFloat(bp.MeasuredAPKI),
			stats.FormatFloat(prof.PaperBypassRatio), stats.FormatFloat(measuredBypass))
	}
	return t, nil
}

// normalisedIPC renders each workload's IPC on every configuration but the
// first, normalised to the first, plus the geometric mean per configuration.
func normalisedIPC(title string, kinds []config.L1DKind, rows []string, res [][]sim.Result) *stats.Table {
	t := stats.NewTable(title, header(kinds[1:])...)
	speedups := make([][]float64, len(kinds)-1)
	for i, w := range rows {
		row := make([]float64, 0, len(speedups))
		for j, r := range res[i][1:] {
			s := r.SpeedupOver(res[i][0])
			row = append(row, s)
			speedups[j] = append(speedups[j], s)
		}
		t.AddRowValues(w, row...)
	}
	gmeans := make([]float64, 0, len(speedups))
	for _, s := range speedups {
		gmeans = append(gmeans, stats.GeoMean(s))
	}
	t.AddRowValues("GMEAN", gmeans...)
	return t
}

// fig13 renders Figure 13: IPC of the six non-baseline L1D configurations
// normalised to L1-SRAM, per workload plus the geometric mean.
func fig13(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	return normalisedIPC("Figure 13: IPC normalised to L1-SRAM", fig13Kinds, rows, res), nil
}

// fig14 renders Figure 14: L1D miss rate of all seven configurations per
// workload.
func fig14(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 14: L1D miss rate", header(fig13Kinds)...)
	sums := make([]float64, len(fig13Kinds))
	for i, w := range rows {
		row := make([]float64, 0, len(fig13Kinds))
		for j, r := range res[i] {
			row = append(row, r.L1DMissRate)
			sums[j] += r.L1DMissRate
		}
		t.AddRowValues(w, row...)
	}
	if len(rows) > 0 {
		means := make([]float64, len(sums))
		for j := range sums {
			means[j] = sums[j] / float64(len(rows))
		}
		t.AddRowValues("MEAN", means...)
	}
	return t, nil
}

// fig15 renders Figure 15: L1D stall cycles caused by STT-MRAM writes and tag
// searching in Hybrid, Base-FUSE and FA-FUSE, normalised to the STT-MRAM
// stalls of Hybrid.
func fig15(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 15: L1D stalls normalised to Hybrid's STT-MRAM stalls",
		"workload", "Hybrid.stt", "BaseFUSE.stt", "BaseFUSE.tag", "FAFUSE.stt", "FAFUSE.tag")
	for i, w := range rows {
		hybrid, base, fa := res[i][0], res[i][1], res[i][2]
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

// fig16 renders Figure 16: the true/neutral/false fractions of the Dy-FUSE
// read-level predictor per workload.
func fig16(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 16: read-level predictor accuracy",
		"workload", "true", "neutral", "false")
	var trues []float64
	for i, w := range rows {
		r := res[i][0]
		t.AddRowValues(w, r.PredTrue, r.PredNeutral, r.PredFalse)
		trues = append(trues, r.PredTrue+r.PredNeutral)
	}
	t.AddRowValues("MEAN(true+neutral)", stats.Mean(trues))
	return t, nil
}

// fig17 renders Figure 17: L1D energy of By-NVM, Base-FUSE, FA-FUSE and
// Dy-FUSE normalised to L1-SRAM.
func fig17(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	l1dEnergy := func(r sim.Result, kind config.L1DKind) float64 {
		return energy.FromResult(r, config.FermiGPU(config.NewL1DConfig(kind))).L1DTotal()
	}
	t := stats.NewTable("Figure 17: L1D energy normalised to L1-SRAM", header(fig17Kinds[1:])...)
	geo := make([][]float64, len(fig17Kinds)-1)
	for i, w := range rows {
		baseEnergy := l1dEnergy(res[i][0], fig17Kinds[0])
		if baseEnergy == 0 {
			baseEnergy = 1
		}
		row := make([]float64, 0, len(geo))
		for j, kind := range fig17Kinds[1:] {
			e := l1dEnergy(res[i][j+1], kind) / baseEnergy
			row = append(row, e)
			geo[j] = append(geo[j], e)
		}
		t.AddRowValues(w, row...)
	}
	gmeans := make([]float64, 0, len(geo))
	for _, g := range geo {
		gmeans = append(gmeans, stats.GeoMean(g))
	}
	t.AddRowValues("GMEAN", gmeans...)
	return t, nil
}

// fig18 renders Figure 18: IPC and L1D miss rate of Dy-FUSE under different
// SRAM:STT-MRAM area splits, the IPC normalised to the 1/16 split.
func fig18(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	t := stats.NewTable("Figure 18: SRAM fraction sweep (Dy-FUSE), IPC normalised to 1/16 and miss rate",
		"workload", "ipc 1/16", "ipc 1/8", "ipc 1/4", "ipc 1/2", "ipc 3/4",
		"miss 1/16", "miss 1/8", "miss 1/4", "miss 1/2", "miss 3/4")
	for i, w := range rows {
		base := res[i][0].IPC
		if base == 0 {
			base = 1
		}
		row := make([]float64, 0, 2*len(res[i]))
		for _, r := range res[i] {
			row = append(row, r.IPC/base)
		}
		for _, r := range res[i] {
			row = append(row, r.L1DMissRate)
		}
		t.AddRowValues(w, row...)
	}
	return t, nil
}

// fig19 renders Figure 19: IPC of the configurations on a Volta-class GPU
// (84 SMs, 6 MB L2, 128 KB L1 budget), normalised to L1-SRAM.
func fig19(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	return normalisedIPC("Figure 19: Volta-class GPU, IPC normalised to L1-SRAM", fig19Kinds, rows, res), nil
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

// backends renders the repository's DeepNVM++-style extension: the paper's
// full Dy-FUSE proposal evaluated over every registered off-chip memory
// backend (GDDR5 baseline, GDDR5X, HBM2, an STT-MRAM main-memory point)
// behind the unchanged cache hierarchy. IPC is normalised to the GDDR5
// baseline; the energy columns are the memory controller's dynamic energy in
// micro-joules charged through the backend's per-command hooks.
func backends(_ *Matrix, rows []string, res [][]sim.Result) (*stats.Table, error) {
	names := dram.Backends()
	cols := []string{"workload"}
	for _, be := range names {
		cols = append(cols, "ipc."+be)
	}
	for _, be := range names {
		cols = append(cols, "uJ."+be)
	}
	t := stats.NewTable("Backend sweep: Dy-FUSE across off-chip memory technologies (IPC normalised to GDDR5)", cols...)
	speedups := make([][]float64, len(names))
	energies := make([][]float64, len(names))
	for i, w := range rows {
		vals := make([]float64, 0, 2*len(names))
		for j, r := range res[i] {
			s := r.SpeedupOver(res[i][0])
			speedups[j] = append(speedups[j], s)
			vals = append(vals, s)
		}
		for j, r := range res[i] {
			uj := r.DRAMEnergyNJ / 1000
			energies[j] = append(energies[j], uj)
			vals = append(vals, uj)
		}
		t.AddRowValues(w, vals...)
	}
	means := make([]float64, 0, 2*len(names))
	for j := range names {
		means = append(means, stats.Mean(speedups[j]))
	}
	for j := range names {
		means = append(means, stats.Mean(energies[j]))
	}
	t.AddRowValues("MEAN", means...)
	return t, nil
}

// Figures 13-17 as functions, for callers that hold them as values (the
// fusebench harness renders its fig-matrix pass through them).

// Fig13NormalizedIPC is Run(m, ExpFig13, workloads).
func Fig13NormalizedIPC(m *Matrix, workloads []string) (*stats.Table, error) {
	return Run(m, ExpFig13, workloads)
}

// Fig14MissRate is Run(m, ExpFig14, workloads).
func Fig14MissRate(m *Matrix, workloads []string) (*stats.Table, error) {
	return Run(m, ExpFig14, workloads)
}

// Fig15CacheStalls is Run(m, ExpFig15, workloads).
func Fig15CacheStalls(m *Matrix, workloads []string) (*stats.Table, error) {
	return Run(m, ExpFig15, workloads)
}

// Fig16PredictorAccuracy is Run(m, ExpFig16, workloads).
func Fig16PredictorAccuracy(m *Matrix, workloads []string) (*stats.Table, error) {
	return Run(m, ExpFig16, workloads)
}

// Fig17L1DEnergy is Run(m, ExpFig17, workloads).
func Fig17L1DEnergy(m *Matrix, workloads []string) (*stats.Table, error) {
	return Run(m, ExpFig17, workloads)
}

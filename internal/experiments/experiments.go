// Package experiments reproduces every table and figure of the paper's
// evaluation: each ExpXX function runs the required simulations and returns a
// text table whose rows correspond to the paper's bars/series. The absolute
// numbers come from our from-scratch simulator rather than GPGPU-Sim, so they
// are not expected to match the paper digit for digit; the shape (who wins,
// by roughly what factor, where the crossovers are) is the reproduction
// target, and EXPERIMENTS.md records both sides.
//
// Simulations are executed through the engine package: every figure declares
// its full job set up front (see Jobs), the Matrix pre-warms the engine's
// result cache in parallel, and the figure functions then read the cached
// results in deterministic order. Figures sharing runs (13, 14, 15, 16, 17)
// never re-simulate.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"fuse/internal/config"
	"fuse/internal/dram"
	"fuse/internal/engine"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/trace"
)

// Scale controls how much work each simulation run does. The experiments are
// statistically stable well below the paper's one-billion-instruction runs;
// the scales below trade fidelity for wall-clock time.
type Scale struct {
	// InstructionsPerWarp is the per-warp instruction budget.
	InstructionsPerWarp uint64
	// SMs is the number of SMs simulated (the memory side is scaled
	// proportionally, see sim.Options.SMOverride).
	SMs int
	// Seed seeds the workload generators.
	Seed uint64
}

// Predefined scales.
var (
	// QuickScale is for unit tests.
	QuickScale = Scale{InstructionsPerWarp: 200, SMs: 2, Seed: 42}
	// BenchScale is for the repository's benchmark harness.
	BenchScale = Scale{InstructionsPerWarp: 400, SMs: 2, Seed: 42}
	// FullScale simulates the paper's full 15-SM GPU.
	FullScale = Scale{InstructionsPerWarp: 2000, SMs: 15, Seed: 42}
)

// Options converts the scale into simulator options.
func (s Scale) Options() sim.Options {
	return sim.Options{
		InstructionsPerWarp: s.InstructionsPerWarp,
		SMOverride:          s.SMs,
		Seed:                s.Seed,
	}
}

// Matrix is the experiment layer's view of the engine: a façade over
// engine.Runner that caches simulation results so that figures sharing the
// same runs (13, 14, 15, 16, 17) do not re-simulate, and that fills the
// cache in parallel when an experiment declares its job set up front.
type Matrix struct {
	scale  Scale
	runner *engine.Runner
	// backend, when non-empty, overrides the memory backend of every job
	// the matrix builds (see SetBackend). The backend-sweep experiment
	// bypasses it: its jobs pin their backends explicitly.
	backend string
}

// NewMatrix creates an empty result cache at the given scale, executing on
// the engine's default worker pool (GOMAXPROCS workers).
func NewMatrix(scale Scale) *Matrix {
	return NewMatrixRunner(scale, engine.New(engine.Config{}))
}

// NewMatrixWorkers creates a matrix whose engine uses the given number of
// workers (0 means GOMAXPROCS). Workers only matter for the batched
// pre-warm paths; the Get accessors are sequential either way.
func NewMatrixWorkers(scale Scale, workers int) *Matrix {
	return NewMatrixRunner(scale, engine.New(engine.Config{Workers: workers}))
}

// NewMatrixRunner wraps an existing engine Runner (the cmd tools build their
// own to attach progress callbacks and share the cache across experiments).
func NewMatrixRunner(scale Scale, r *engine.Runner) *Matrix {
	return &Matrix{scale: scale, runner: r}
}

// Scale returns the matrix's scale.
func (m *Matrix) Scale() Scale { return m.scale }

// Runner exposes the underlying engine Runner.
func (m *Matrix) Runner() *engine.Runner { return m.runner }

// SetBackend makes every job of this matrix run on the given memory backend
// (see dram.Backends; empty restores the configurations' own backends). The
// caller validates the name; figure functions and Jobs declarations build
// identical jobs either way, so pre-warmed caches keep hitting.
func (m *Matrix) SetBackend(name string) { m.backend = name }

// job builds the engine job for a kind-based simulation. A backend override
// materialises the GPU config (the engine's kind jobs are Fermi-default) and
// labels the job after its backend.
func (m *Matrix) job(kind config.L1DKind, workload string) engine.Job {
	if m.backend != "" {
		return engine.BackendJob(kind, workload, m.backend, m.scale.Options())
	}
	return engine.Job{Kind: kind, Workload: workload, Opts: m.scale.Options()}
}

// customJob builds the engine job for a custom-GPU simulation. The label
// names the job; the GPU configuration identifies it.
func (m *Matrix) customJob(label string, gpuCfg config.GPUConfig, workload string) engine.Job {
	cfg := gpuCfg
	if m.backend != "" {
		cfg.MemBackend = m.backend
		label += "@" + m.backend
	}
	return engine.Job{Label: label, GPU: &cfg, Workload: workload, Opts: m.scale.Options()}
}

// backendJob builds one point of the backend sweep: the paper's full Dy-FUSE
// proposal on the Fermi-class GPU with the given memory backend. It bypasses
// any SetBackend override — the sweep's identity is its backend.
func (m *Matrix) backendJob(backend, workload string) engine.Job {
	return engine.BackendJob(config.DyFUSE, workload, backend, m.scale.Options())
}

// getBackend runs (or reads) one backend-sweep point.
func (m *Matrix) getBackend(backend, workload string) (sim.Result, error) {
	return m.runner.Get(context.Background(), m.backendJob(backend, workload))
}

// Get runs (or returns the cached result of) one simulation.
func (m *Matrix) Get(kind config.L1DKind, workload string) (sim.Result, error) {
	return m.runner.Get(context.Background(), m.job(kind, workload))
}

// GetCustom runs (or returns the cached result of) a simulation with a custom
// GPU configuration, named by a label instead of an L1D kind.
func (m *Matrix) GetCustom(label string, gpuCfg config.GPUConfig, workload string) (sim.Result, error) {
	return m.runner.Get(context.Background(), m.customJob(label, gpuCfg, workload))
}

// Runs returns the number of completed (cached) simulation results.
func (m *Matrix) Runs() int { return m.runner.Completed() }

// Prewarm executes the full job set of the named experiments in parallel on
// the engine's worker pool, so that the figure functions afterwards are pure
// cache reads. Jobs shared between experiments are deduplicated by the
// engine. A nil workloads slice means each experiment's default set.
func (m *Matrix) Prewarm(ctx context.Context, names []string, workloads []string) error {
	var jobs []engine.Job
	for _, name := range names {
		jobs = append(jobs, m.Jobs(name, workloads)...)
	}
	if len(jobs) == 0 {
		return nil
	}
	_, err := m.runner.RunBatch(ctx, jobs)
	return err
}

// backendSweepWorkloads resolves the backend sweep's workload set: its
// default is the memory-intensive motivation set (the sweep is about
// off-chip behaviour), not the full 21-workload matrix.
func backendSweepWorkloads(workloads []string) []string {
	if workloads == nil {
		return trace.MotivationWorkloads()
	}
	return workloads
}

// Jobs declares the full simulation set of one experiment: every (config,
// workload) point the figure function will request. Experiments that run no
// simulations (table1, table3, fig6, fig20) declare an empty set. A nil
// workloads slice means the experiment's default set.
func (m *Matrix) Jobs(name string, workloads []string) []engine.Job {
	if name == ExpBackends {
		var jobs []engine.Job
		for _, w := range backendSweepWorkloads(workloads) {
			for _, be := range dram.Backends() {
				jobs = append(jobs, m.backendJob(be, w))
			}
		}
		return jobs
	}
	if workloads == nil {
		workloads = AllWorkloads()
	}
	var jobs []engine.Job
	kindSet := func(kinds []config.L1DKind, ws []string) {
		for _, w := range ws {
			for _, k := range kinds {
				jobs = append(jobs, m.job(k, w))
			}
		}
	}
	switch name {
	case ExpFig1:
		kindSet([]config.L1DKind{config.L1SRAM}, workloads)
	case ExpFig3:
		mw := trace.MotivationWorkloads()
		kindSet([]config.L1DKind{config.L1SRAM, config.ByNVM}, mw)
		oracle := oracleGPU()
		for _, w := range mw {
			jobs = append(jobs, m.customJob("oracle", oracle, w))
		}
	case ExpFig7:
		ideal := idealFAGPU()
		for _, suite := range trace.Suites() {
			for _, w := range trace.BySuite(suite) {
				jobs = append(jobs, m.job(config.FAFUSE, w))
				jobs = append(jobs, m.customJob("ideal-fa", ideal, w))
			}
		}
	case ExpTable2:
		kindSet([]config.L1DKind{config.ByNVM}, workloads)
	case ExpFig13:
		kindSet(append([]config.L1DKind{config.L1SRAM}, fig13Kinds...), workloads)
	case ExpFig14:
		kindSet(append([]config.L1DKind{config.L1SRAM}, fig13Kinds...), workloads)
	case ExpFig15:
		kindSet([]config.L1DKind{config.Hybrid, config.BaseFUSE, config.FAFUSE}, workloads)
	case ExpFig16:
		kindSet([]config.L1DKind{config.DyFUSE}, workloads)
	case ExpFig17:
		kindSet(append([]config.L1DKind{config.L1SRAM}, fig17Kinds...), workloads)
	case ExpFig18:
		for _, w := range trace.RatioSweepWorkloads() {
			for _, r := range ratioPoints {
				cfg, err := ratioGPU(r.frac)
				if err != nil {
					continue // the figure function reports the error
				}
				jobs = append(jobs, m.customJob("ratio-"+r.label, cfg, w))
			}
		}
	case ExpFig19:
		for _, w := range workloads {
			jobs = append(jobs, m.customJob("volta-L1-SRAM", voltaGPU(config.L1SRAM), w))
			for _, kind := range fig19Kinds {
				jobs = append(jobs, m.customJob("volta-"+kind.String(), voltaGPU(kind), w))
			}
		}
	}
	return jobs
}

// fig13Kinds is the configuration order of Figures 13/14.
var fig13Kinds = []config.L1DKind{
	config.ByNVM, config.FASRAM, config.Hybrid,
	config.BaseFUSE, config.FAFUSE, config.DyFUSE,
}

// AllWorkloads returns the 21 workload names in figure order. It is pinned
// to the builtin benchmarks: registering custom workloads (workload files,
// the server's inline definitions) never changes what a paper figure means —
// pass an explicit workload subset to include them.
func AllWorkloads() []string { return trace.BuiltinNames() }

// Names of the experiments, usable with Run.
const (
	ExpFig1   = "fig1"
	ExpFig3   = "fig3"
	ExpFig6   = "fig6"
	ExpFig7   = "fig7"
	ExpTable1 = "table1"
	ExpTable2 = "table2"
	ExpFig13  = "fig13"
	ExpFig14  = "fig14"
	ExpFig15  = "fig15"
	ExpFig16  = "fig16"
	ExpFig17  = "fig17"
	ExpFig18  = "fig18"
	ExpFig19  = "fig19"
	ExpFig20  = "fig20"
	ExpTable3 = "table3"
	// ExpBackends is this repository's extension beyond the paper: the
	// DeepNVM++-style sweep of the main-memory technology behind the fixed
	// cache hierarchy.
	ExpBackends = "backends"
)

// AllExperiments lists every experiment identifier in paper order, followed
// by the repository's extensions.
func AllExperiments() []string {
	return []string{
		ExpFig1, ExpFig3, ExpFig6, ExpFig7, ExpTable1, ExpTable2,
		ExpFig13, ExpFig14, ExpFig15, ExpFig16, ExpFig17,
		ExpFig18, ExpFig19, ExpFig20, ExpTable3, ExpBackends,
	}
}

// Run executes one experiment by name over the given workloads (nil means the
// experiment's default set) using the matrix's scale and result cache.
func Run(m *Matrix, name string, workloads []string) (*stats.Table, error) {
	return RunContext(context.Background(), m, name, workloads)
}

// RunContext is Run with cancellation: it pre-warms the engine cache with the
// experiment's declared job set (executed in parallel on the matrix's worker
// pool), then builds the table from the cached results.
func RunContext(ctx context.Context, m *Matrix, name string, workloads []string) (*stats.Table, error) {
	if !slices.Contains(AllExperiments(), name) {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, AllExperiments())
	}
	if err := m.Prewarm(ctx, []string{name}, workloads); err != nil {
		return nil, err
	}
	if name == ExpBackends {
		return BackendSweep(m, backendSweepWorkloads(workloads))
	}
	if workloads == nil {
		workloads = AllWorkloads()
	}
	switch name {
	case ExpFig1:
		return Fig1OffChipOverheads(m, workloads)
	case ExpFig3:
		return Fig3Motivation(m)
	case ExpFig6:
		return Fig6ReadLevelAnalysis(workloads, m.scale.Seed)
	case ExpFig7:
		return Fig7ApproxVsFullyAssociative(m)
	case ExpTable1:
		return Table1Configuration(), nil
	case ExpTable2:
		return Table2Workloads(m, workloads)
	case ExpFig13:
		return Fig13NormalizedIPC(m, workloads)
	case ExpFig14:
		return Fig14MissRate(m, workloads)
	case ExpFig15:
		return Fig15CacheStalls(m, workloads)
	case ExpFig16:
		return Fig16PredictorAccuracy(m, workloads)
	case ExpFig17:
		return Fig17L1DEnergy(m, workloads)
	case ExpFig18:
		return Fig18RatioSweep(m)
	case ExpFig19:
		return Fig19Volta(m, workloads)
	case ExpFig20:
		return Fig20CBFFalsePositives(m.scale.Seed)
	case ExpTable3:
		return Table3Area(), nil
	default:
		return nil, fmt.Errorf("experiments: experiment %q has no dispatch entry", name)
	}
}

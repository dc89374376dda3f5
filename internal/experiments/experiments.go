// Package experiments reproduces every table and figure of the paper's
// evaluation: each experiment runs the required simulations and returns a
// text table whose rows correspond to the paper's bars/series. The absolute
// numbers come from our from-scratch simulator rather than GPGPU-Sim, so they
// are not expected to match the paper digit for digit; the shape (who wins,
// by roughly what factor, where the crossovers are) is the reproduction
// target, and EXPERIMENTS.md records both sides.
//
// Each experiment is declared once, as an entry of the figures table: its
// workloads (the rows), one job constructor per configuration (the columns)
// and a render function over the grid of results. Jobs lays the grid out for
// pre-warming, and RunContext executes the same grid as one engine batch and
// renders it. The engine deduplicates by store key, so figures sharing runs
// (13, 14, 15, 16, 17) never re-simulate.
package experiments

import (
	"context"
	"fmt"

	"fuse/internal/config"
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

// ParseScale resolves a scale by its command-line name: quick, bench or full.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale, nil
	case "bench":
		return BenchScale, nil
	case "full":
		return FullScale, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want quick, bench or full)", name)
}

// Matrix is the experiment layer's view of the engine: a façade over
// engine.Runner, whose result cache lets figures sharing the same runs (13,
// 14, 15, 16, 17) read them without re-simulating.
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
// caller validates the name.
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

// Runs returns the number of completed (cached) simulation results.
func (m *Matrix) Runs() int { return m.runner.Completed() }

// Prewarm executes the full job set of the named experiments in parallel on
// the engine's worker pool, so that running them afterwards is pure cache
// reads. Jobs shared between experiments are deduplicated by the engine. A
// nil workloads slice means each experiment's default set.
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

// Jobs returns the full simulation set of one experiment, laid out
// workload-major from its declaration (see figures). Experiments that run no
// simulations (table1, table3, fig6, fig20) and unknown names have none. A
// nil workloads slice means the experiment's default set.
func (m *Matrix) Jobs(name string, workloads []string) []engine.Job {
	jobs, _ := m.layout(figures[name], workloads)
	return jobs
}

// layout resolves an experiment's rows from the caller's workload subset and
// builds one job per (row, column), workload-major.
func (m *Matrix) layout(f figure, subset []string) ([]engine.Job, []string) {
	var rows []string
	if f.rows != nil {
		rows = f.rows(subset)
	}
	jobs := make([]engine.Job, 0, len(rows)*len(f.cols))
	for _, w := range rows {
		for _, col := range f.cols {
			jobs = append(jobs, col(m, w))
		}
	}
	return jobs, rows
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

// RunContext is Run with cancellation: it executes the experiment's jobs as
// one batch on the matrix's worker pool (cache hits cost no simulation), then
// renders the table from the results.
func RunContext(ctx context.Context, m *Matrix, name string, workloads []string) (*stats.Table, error) {
	f, ok := figures[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, AllExperiments())
	}
	jobs, rows := m.layout(f, workloads)
	out, err := m.runner.RunBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}
	results := make([]sim.Result, len(out))
	for i, o := range out {
		results[i] = o.Result
	}
	res := make([][]sim.Result, len(rows))
	for i := range res {
		res[i] = results[i*len(f.cols) : (i+1)*len(f.cols)]
	}
	return f.render(m, rows, res)
}

// Package trace generates the synthetic GPU memory-reference streams that
// stand in for the paper's CUDA benchmarks (PolyBench, Rodinia, Parboil and
// Mars). Each benchmark is described by a Profile whose parameters are taken
// from the paper's Table II (APKI, By-NVM bypass ratio) and Figure 6
// (read-level mix), plus a working-set size and an irregularity knob that
// reproduce the workload's cache behaviour. The generator produces
// per-SM instruction streams whose statistics — not their arithmetic — drive
// the memory hierarchy, which is all the paper's evaluation depends on.
package trace

import (
	"fmt"
	"sort"

	"fuse/internal/mem"
)

// ReadLevelMix is the fraction of data blocks in each read-level category
// (Figure 6). The four fractions sum to 1.
type ReadLevelMix struct {
	WM            float64
	ReadIntensive float64
	WORM          float64
	WORO          float64
}

// Sum returns the total of the four fractions.
func (m ReadLevelMix) Sum() float64 { return m.WM + m.ReadIntensive + m.WORM + m.WORO }

// Profile describes one benchmark.
//
// A synthetic workload's store-key material is its Profile encoding, so every
// field must change the key. TestKeyDeterministicAndSensitive
// (internal/store) perturbs each field in turn and fails if one does not.
type Profile struct {
	// Name is the benchmark name as used in the paper's figures.
	Name string
	// Suite is the benchmark suite (PolyBench, Rodinia, Parboil, Mars).
	Suite string
	// Description gives a one-line summary of the kernel.
	Description string
	// APKI is the number of memory accesses per kilo-instruction (Table II).
	APKI float64
	// Mix is the read-level block mix (Figure 6).
	Mix ReadLevelMix
	// WorkingSetBlocks is the per-SM reuse window, in 128-byte blocks, of
	// the WORM and read-intensive data. It determines which cache
	// organisations can capture the workload.
	WorkingSetBlocks int
	// Irregular in [0,1] is the probability that a block address is
	// scattered (hashed) rather than sequential; irregular workloads
	// produce the conflict misses that only (approximately)
	// fully-associative organisations avoid.
	Irregular float64
	// WORMReuse is the average number of reads a WORM block receives after
	// its single write.
	WORMReuse int
	// PaperBypassRatio is the By-NVM bypass ratio the paper reports in
	// Table II (documentation; the simulator measures its own).
	PaperBypassRatio float64
}

// maxWorkingSetBlocks caps a profile's per-SM working set. 1<<16 blocks is
// 8 MiB per SM: above Volta's 6 MB L2 and 140× the largest builtin (460), so
// no cache organisation the simulator models can tell a larger set apart.
// The cap keeps each warp's window (WorkingSetBlocks/48 blocks) inside the
// warp's own 2^26-block address slice and its generator state to tens of
// kilobytes; an uncapped set lets one workload-file entry exhaust memory.
const maxWorkingSetBlocks = 1 << 16

// Validate reports whether the profile is internally consistent.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile without a name")
	}
	if p.APKI <= 0 {
		return fmt.Errorf("trace: %s: APKI must be positive", p.Name)
	}
	if m := p.Mix; m.WM < 0 || m.ReadIntensive < 0 || m.WORM < 0 || m.WORO < 0 {
		return fmt.Errorf("trace: %s: read-level mix fractions must not be negative", p.Name)
	}
	if s := p.Mix.Sum(); s < 0.99 || s > 1.01 {
		return fmt.Errorf("trace: %s: read-level mix sums to %v, want 1", p.Name, s)
	}
	if p.WorkingSetBlocks <= 0 || p.WorkingSetBlocks > maxWorkingSetBlocks {
		return fmt.Errorf("trace: %s: working set must be in [1,%d] blocks", p.Name, maxWorkingSetBlocks)
	}
	if p.Irregular < 0 || p.Irregular > 1 {
		return fmt.Errorf("trace: %s: irregularity must be in [0,1]", p.Name)
	}
	if p.WORMReuse <= 0 {
		return fmt.Errorf("trace: %s: WORM reuse must be positive", p.Name)
	}
	return nil
}

// profiles is the table of the 21 representative workloads the paper selects
// (Table II). Working-set sizes and irregularity are calibrated so that the
// workloads thrash, fit or stream in the same qualitative way the paper
// describes: the irregular PolyBench kernels (ATAX, BICG, GESUMMV, MVT, ...)
// have scattered working sets around 400-460 blocks that overwhelm the
// 256-block L1-SRAM but fit the fully-associative FUSE organisations; the
// MapReduce workloads (PVC, PVR, SS) carry a large write-multiple fraction;
// 2MM/3MM are write-heavy; pathf/mri-g/srad barely touch memory.
var profiles = []Profile{
	{Name: "2DCONV", Suite: "PolyBench", Description: "2-D convolution stencil", APKI: 9, Mix: ReadLevelMix{0.03, 0.07, 0.82, 0.08}, WorkingSetBlocks: 192, Irregular: 0.10, WORMReuse: 4, PaperBypassRatio: 0.26},
	{Name: "2MM", Suite: "PolyBench", Description: "two chained matrix multiplications", APKI: 10, Mix: ReadLevelMix{0.30, 0.05, 0.55, 0.10}, WorkingSetBlocks: 380, Irregular: 0.50, WORMReuse: 3, PaperBypassRatio: 0.60},
	{Name: "3MM", Suite: "PolyBench", Description: "three chained matrix multiplications", APKI: 10, Mix: ReadLevelMix{0.30, 0.05, 0.55, 0.10}, WorkingSetBlocks: 400, Irregular: 0.50, WORMReuse: 3, PaperBypassRatio: 0.49},
	{Name: "ATAX", Suite: "PolyBench", Description: "matrix-transpose-vector product", APKI: 64, Mix: ReadLevelMix{0.02, 0.05, 0.85, 0.08}, WorkingSetBlocks: 420, Irregular: 0.90, WORMReuse: 4, PaperBypassRatio: 0.90},
	{Name: "BICG", Suite: "PolyBench", Description: "BiCGStab linear-solver kernel", APKI: 64, Mix: ReadLevelMix{0.02, 0.05, 0.85, 0.08}, WorkingSetBlocks: 420, Irregular: 0.90, WORMReuse: 4, PaperBypassRatio: 0.90},
	{Name: "cfd", Suite: "Rodinia", Description: "unstructured-grid finite-volume solver", APKI: 4.5, Mix: ReadLevelMix{0.05, 0.10, 0.75, 0.10}, WorkingSetBlocks: 300, Irregular: 0.60, WORMReuse: 3, PaperBypassRatio: 0.81},
	{Name: "FDTD", Suite: "PolyBench", Description: "2-D finite-difference time domain", APKI: 18, Mix: ReadLevelMix{0.08, 0.10, 0.74, 0.08}, WorkingSetBlocks: 360, Irregular: 0.30, WORMReuse: 4, PaperBypassRatio: 0.27},
	{Name: "gaussian", Suite: "Rodinia", Description: "Gaussian elimination", APKI: 8.5, Mix: ReadLevelMix{0.04, 0.08, 0.80, 0.08}, WorkingSetBlocks: 230, Irregular: 0.20, WORMReuse: 4, PaperBypassRatio: 0.36},
	{Name: "GEMM", Suite: "PolyBench", Description: "dense matrix-matrix multiplication", APKI: 136, Mix: ReadLevelMix{0.05, 0.10, 0.80, 0.05}, WorkingSetBlocks: 450, Irregular: 0.70, WORMReuse: 4, PaperBypassRatio: 0.61},
	{Name: "GESUM", Suite: "PolyBench", Description: "scalar-vector-matrix multiplication (GESUMMV)", APKI: 12, Mix: ReadLevelMix{0.02, 0.04, 0.86, 0.08}, WorkingSetBlocks: 410, Irregular: 0.90, WORMReuse: 4, PaperBypassRatio: 0.96},
	{Name: "II", Suite: "Mars", Description: "inverted-index MapReduce", APKI: 77, Mix: ReadLevelMix{0.06, 0.06, 0.70, 0.18}, WorkingSetBlocks: 460, Irregular: 0.80, WORMReuse: 3, PaperBypassRatio: 0.54},
	{Name: "MVT", Suite: "PolyBench", Description: "matrix-vector product and transpose", APKI: 64, Mix: ReadLevelMix{0.02, 0.05, 0.85, 0.08}, WorkingSetBlocks: 420, Irregular: 0.90, WORMReuse: 4, PaperBypassRatio: 0.91},
	{Name: "PVC", Suite: "Mars", Description: "page-view count MapReduce", APKI: 37, Mix: ReadLevelMix{0.25, 0.10, 0.50, 0.15}, WorkingSetBlocks: 400, Irregular: 0.60, WORMReuse: 3, PaperBypassRatio: 0.18},
	{Name: "PVR", Suite: "Mars", Description: "page-view rank MapReduce", APKI: 14, Mix: ReadLevelMix{0.22, 0.10, 0.53, 0.15}, WorkingSetBlocks: 450, Irregular: 0.50, WORMReuse: 3, PaperBypassRatio: 0.33},
	{Name: "pathf", Suite: "Rodinia", Description: "dynamic-programming path finder", APKI: 1.2, Mix: ReadLevelMix{0.05, 0.10, 0.70, 0.15}, WorkingSetBlocks: 128, Irregular: 0.20, WORMReuse: 3, PaperBypassRatio: 0.92},
	{Name: "SS", Suite: "Mars", Description: "similarity score MapReduce", APKI: 30, Mix: ReadLevelMix{0.25, 0.08, 0.47, 0.20}, WorkingSetBlocks: 430, Irregular: 0.70, WORMReuse: 3, PaperBypassRatio: 0.80},
	{Name: "srad_v1", Suite: "Rodinia", Description: "speckle-reducing anisotropic diffusion", APKI: 3.5, Mix: ReadLevelMix{0.06, 0.10, 0.76, 0.08}, WorkingSetBlocks: 200, Irregular: 0.20, WORMReuse: 4, PaperBypassRatio: 0.38},
	{Name: "SM", Suite: "Mars", Description: "string match MapReduce", APKI: 140, Mix: ReadLevelMix{0.04, 0.08, 0.80, 0.08}, WorkingSetBlocks: 460, Irregular: 0.80, WORMReuse: 4, PaperBypassRatio: 0.02},
	{Name: "SYR2K", Suite: "PolyBench", Description: "symmetric rank-2k update", APKI: 108, Mix: ReadLevelMix{0.04, 0.10, 0.81, 0.05}, WorkingSetBlocks: 440, Irregular: 0.60, WORMReuse: 4, PaperBypassRatio: 0.02},
	{Name: "mri-g", Suite: "Parboil", Description: "MRI gridding", APKI: 3.3, Mix: ReadLevelMix{0.05, 0.15, 0.70, 0.10}, WorkingSetBlocks: 150, Irregular: 0.30, WORMReuse: 4, PaperBypassRatio: 0.13},
	{Name: "histo", Suite: "Parboil", Description: "saturating histogram", APKI: 9.6, Mix: ReadLevelMix{0.15, 0.15, 0.60, 0.10}, WorkingSetBlocks: 280, Irregular: 0.50, WORMReuse: 3, PaperBypassRatio: 0.63},
}

// MotivationWorkloads returns the seven memory-intensive workloads used in
// the paper's Figure 3 motivation study.
func MotivationWorkloads() []string {
	return []string{"3MM", "ATAX", "BICG", "gaussian", "GESUM", "II", "SYR2K"}
}

// RatioSweepWorkloads returns the nine workloads used in the Figure 18
// SRAM/STT-MRAM ratio sensitivity study.
func RatioSweepWorkloads() []string {
	return []string{"2DCONV", "2MM", "3MM", "ATAX", "BICG", "FDTD", "GEMM", "GESUM", "SYR2K"}
}

// CBFStudyWorkloads returns the nine workloads of the Figure 20 CBF
// false-positive study.
func CBFStudyWorkloads() []string {
	return []string{"2DCONV", "2MM", "3MM", "ATAX", "BICG", "cfd", "FDTD", "gaussian", "GEMM"}
}

// Suites returns the distinct benchmark suites in deterministic order.
func Suites() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range profiles {
		if !seen[p.Suite] {
			seen[p.Suite] = true
			out = append(out, p.Suite)
		}
	}
	sort.Strings(out)
	return out
}

// BySuite returns the profile names belonging to the given suite.
func BySuite(suite string) []string {
	var out []string
	for _, p := range profiles {
		if p.Suite == suite {
			out = append(out, p.Name)
		}
	}
	return out
}

// Classify maps a block's lifetime access counts onto the paper's read-level
// categories (used by the Figure 6 analysis and the predictor audit).
func Classify(writes, reads uint64) mem.ReadLevel {
	total := writes + reads
	switch {
	case total <= 1:
		return mem.WORO
	case writes >= 2 && reads >= 2*writes:
		return mem.ReadIntensive
	case writes >= 2:
		return mem.WriteMultiple
	case reads >= 2:
		return mem.WORM
	default:
		return mem.WORO
	}
}

package trace

import (
	"encoding/json"
	"fmt"
)

// Source is the per-SM instruction-stream contract: the simulator asks it for
// one dynamic instruction per issue slot. *Kernel — the synthetic Table-II
// generator — is the canonical implementation; phased composites are the
// other. A Source is owned by exactly one SM and is never shared across
// goroutines.
type Source interface {
	// Next produces the next dynamic instruction for the given warp.
	Next(warp int) Instruction
}

// Workload describes one runnable workload: it names itself, validates its
// parameters, constructs the per-SM instruction Source, and canonicalises to
// the JSON key material the content-addressed result store hashes.
//
// Implementations: Synthetic (one Table-II-style Profile) and Phased (a chain
// of profiles with per-phase instruction budgets). The registry
// (Register/Lookup) maps names to Workloads so the engine, the CLIs and the
// server share one lookup path.
type Workload interface {
	// Name is the workload name used in figures, job identities and tables.
	Name() string
	// Validate reports whether the workload is internally consistent. Every
	// construction entry point (registry registration, workload-file load,
	// sim.New) calls it; an invalid workload never reaches the simulator.
	Validate() error
	// NewSource builds the instruction stream for one SM. The same
	// (workload, sm, seed) triple must always yield a byte-identical
	// instruction sequence — the determinism the result store depends on.
	NewSource(sm int, seed uint64) (Source, error)
	// KeyMaterial returns the canonical JSON the result store hashes as the
	// workload part of its key. Synthetic workloads marshal exactly their
	// Profile (so every pre-existing store entry for the builtin profiles
	// keeps its key); other kinds carry a discriminating "kind" field that no
	// Profile encoding can collide with.
	KeyMaterial() (json.RawMessage, error)
}

// SyntheticWorkload is a Workload backed by one synthetic Profile — the shape
// of all 21 builtin Table-II benchmarks and of user-defined profiles loaded
// from a workload file.
type SyntheticWorkload struct {
	Profile Profile
}

// Synthetic wraps a profile as a Workload.
func Synthetic(p Profile) *SyntheticWorkload {
	return &SyntheticWorkload{Profile: p}
}

// Name implements Workload.
func (w *SyntheticWorkload) Name() string { return w.Profile.Name }

// Validate implements Workload.
func (w *SyntheticWorkload) Validate() error { return w.Profile.Validate() }

// NewSource implements Workload.
func (w *SyntheticWorkload) NewSource(sm int, seed uint64) (Source, error) {
	return NewKernel(w.Profile, sm, seed), nil
}

// KeyMaterial implements Workload: exactly the Profile's JSON encoding, so a
// synthetic workload's store key is byte-identical to the pre-registry scheme
// that embedded trace.Profile directly in the key material.
func (w *SyntheticWorkload) KeyMaterial() (json.RawMessage, error) {
	return json.Marshal(w.Profile)
}

// Phase is one stage of a phased workload: a resolved profile plus the per-SM
// instruction budget after which the stream moves on to the next phase. The
// final phase's budget is advisory — the stream stays in it for as long as
// the simulator keeps asking.
type Phase struct {
	Profile Profile
	// Instructions is the per-SM dynamic-instruction budget of the phase.
	Instructions uint64
}

// PhasedWorkload chains profiles into one multi-kernel application — the
// shape of real GPGPU workloads (and of ML training steps: an embedding
// gather phase, a GEMM-heavy phase, a write-heavy gradient phase) that no
// single Table-II profile captures.
type PhasedWorkload struct {
	WorkloadName string
	Description  string
	Phases       []Phase
}

// NewPhased builds a phased workload from resolved phases.
func NewPhased(name string, phases []Phase) *PhasedWorkload {
	return &PhasedWorkload{WorkloadName: name, Phases: phases}
}

// Name implements Workload.
func (w *PhasedWorkload) Name() string { return w.WorkloadName }

// Validate implements Workload.
func (w *PhasedWorkload) Validate() error {
	if w.WorkloadName == "" {
		return fmt.Errorf("trace: phased workload without a name")
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("trace: %s: phased workload needs at least one phase", w.WorkloadName)
	}
	for i, ph := range w.Phases {
		if err := ph.Profile.Validate(); err != nil {
			return fmt.Errorf("trace: %s: phase %d: %w", w.WorkloadName, i, err)
		}
		if ph.Instructions == 0 && i != len(w.Phases)-1 {
			return fmt.Errorf("trace: %s: phase %d (%s): every phase but the last needs a positive instruction budget",
				w.WorkloadName, i, ph.Profile.Name)
		}
	}
	return nil
}

// NewSource implements Workload.
func (w *PhasedWorkload) NewSource(sm int, seed uint64) (Source, error) {
	return &phasedSource{phases: w.Phases, sm: sm, seed: seed}, nil
}

// phasedKeyMaterial is the canonical key encoding of a phased workload. The
// "kind" discriminator keeps it disjoint from every Profile encoding, and the
// phases embed their resolved profiles, so renaming a registry entry that a
// phase was resolved from cannot silently alias two different simulations.
type phasedKeyMaterial struct {
	Kind   string          `json:"kind"`
	Name   string          `json:"name"`
	Phases []phaseMaterial `json:"phases"`
}

type phaseMaterial struct {
	Profile      Profile `json:"profile"`
	Instructions uint64  `json:"instructions"`
}

// KeyMaterial implements Workload.
func (w *PhasedWorkload) KeyMaterial() (json.RawMessage, error) {
	m := phasedKeyMaterial{Kind: "phased", Name: w.WorkloadName}
	for _, ph := range w.Phases {
		m.Phases = append(m.Phases, phaseMaterial{Profile: ph.Profile, Instructions: ph.Instructions})
	}
	return json.Marshal(m)
}

// phasedSource drives one phase's kernel until its per-SM instruction budget
// is spent, then constructs the next phase's kernel. Each phase reseeds its
// kernel with the phase index mixed in, so two phases over the same profile
// generate distinct (but deterministic) streams.
type phasedSource struct {
	phases []Phase
	sm     int
	seed   uint64

	cur       int
	src       Source
	curBudget uint64 // instructions generated in the current phase
}

// phaseSeed derives the deterministic kernel seed of one phase.
func phaseSeed(seed uint64, phase int) uint64 {
	return seed + uint64(phase)*0x9E3779B97F4A7C15
}

// Next implements Source.
func (s *phasedSource) Next(warp int) Instruction {
	if s.src == nil {
		s.src = NewKernel(s.phases[0].Profile, s.sm, phaseSeed(s.seed, 0))
	}
	for s.cur < len(s.phases)-1 && s.curBudget >= s.phases[s.cur].Instructions {
		s.cur++
		s.src = NewKernel(s.phases[s.cur].Profile, s.sm, phaseSeed(s.seed, s.cur))
		s.curBudget = 0
	}
	s.curBudget++
	return s.src.Next(warp)
}

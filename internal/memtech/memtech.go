// Package memtech models the circuit-level characteristics of the on-chip
// memory technologies the paper compares: SRAM, STT-MRAM and (for the
// discussion section) eDRAM. Each technology is described by access
// latencies, per-access dynamic energies, leakage power and cell area, with
// the default values taken from Table I of the paper and its cited sources
// (CACTI 6.5 and NVSim).
package memtech

import (
	"errors"
	"fmt"
)

// Technology identifies an on-chip memory technology.
type Technology uint8

const (
	// SRAM is the conventional six-transistor cell technology.
	SRAM Technology = iota
	// STTMRAM is spin-transfer torque magnetic RAM (1T-1MTJ cell).
	STTMRAM
	// EDRAM is embedded DRAM, considered and rejected in the paper's
	// discussion section because of its refresh overhead and larger cell.
	EDRAM
)

// String implements fmt.Stringer.
func (t Technology) String() string {
	switch t {
	case SRAM:
		return "SRAM"
	case STTMRAM:
		return "STT-MRAM"
	case EDRAM:
		return "eDRAM"
	default:
		return fmt.Sprintf("Technology(%d)", uint8(t))
	}
}

// Params captures the architectural parameters of a memory technology at a
// given bank size. Latencies are in L1D cache cycles, energies in nano-joules
// per 128-byte access, leakage in milliwatts for the configured bank, and
// cell area in F^2 (square feature sizes).
type Params struct {
	Tech Technology
	// ReadLatency is the bank read latency in cycles.
	ReadLatency int
	// WriteLatency is the bank write latency in cycles. For STT-MRAM it is
	// several times the read latency because the MTJ free layer must be
	// physically rotated.
	WriteLatency int
	// ReadEnergy is the dynamic energy of one 128-byte read in nJ.
	ReadEnergy float64
	// WriteEnergy is the dynamic energy of one 128-byte write in nJ.
	WriteEnergy float64
	// LeakagePower is the static power of the bank in mW.
	LeakagePower float64
	// CellArea is the area of a single bit cell in F^2.
	CellArea float64
	// RefreshIntervalUS is the refresh period in microseconds; zero means
	// the technology does not need refresh (SRAM, STT-MRAM).
	RefreshIntervalUS float64
}

// Validate reports whether the parameter set is internally consistent.
func (p *Params) Validate() error {
	if p.ReadLatency <= 0 || p.WriteLatency <= 0 {
		return errors.New("memtech: latencies must be positive")
	}
	if p.ReadEnergy < 0 || p.WriteEnergy < 0 || p.LeakagePower < 0 {
		return errors.New("memtech: energies and leakage must be non-negative")
	}
	if p.CellArea <= 0 {
		return errors.New("memtech: cell area must be positive")
	}
	if p.RefreshIntervalUS < 0 {
		return errors.New("memtech: refresh interval must be non-negative")
	}
	return nil
}

// Default technology parameter constructors. The SRAM and STT-MRAM numbers
// follow Table I of the paper; leakage scales linearly with capacity from the
// table's 32 KB SRAM (58 mW) and 64 KB STT-MRAM (2.4 mW) reference points.

// SRAMLeakagePerKB is the SRAM leakage power in mW per KB (Table I: 58 mW for 32 KB).
const SRAMLeakagePerKB = 58.0 / 32.0

// STTMRAMLeakagePerKB is the STT-MRAM leakage power in mW per KB (Table I: 2.4 mW for 64 KB).
const STTMRAMLeakagePerKB = 2.4 / 64.0

// EDRAMLeakagePerKB is an eDRAM leakage estimate in mW per KB.
const EDRAMLeakagePerKB = 0.9 / 32.0

// SRAMParams returns the SRAM parameter set for a bank of the given capacity
// in kilobytes.
func SRAMParams(capacityKB int) Params {
	return Params{
		Tech:         SRAM,
		ReadLatency:  1,
		WriteLatency: 1,
		ReadEnergy:   0.15,
		WriteEnergy:  0.12,
		LeakagePower: SRAMLeakagePerKB * float64(capacityKB),
		CellArea:     140,
	}
}

// SmallSRAMParams returns the parameter set of the reduced SRAM bank used
// inside the hybrid FUSE configurations (Table I lists 0.09/0.07 nJ for the
// 16 KB SRAM bank because the smaller array has shorter bit lines).
func SmallSRAMParams(capacityKB int) Params {
	p := SRAMParams(capacityKB)
	p.ReadEnergy = 0.09
	p.WriteEnergy = 0.07
	p.LeakagePower = 36.0 / 16.0 * float64(capacityKB)
	return p
}

// STTMRAMParams returns the STT-MRAM parameter set for a bank of the given
// capacity in kilobytes, as used by the hybrid FUSE configurations.
func STTMRAMParams(capacityKB int) Params {
	return Params{
		Tech:         STTMRAM,
		ReadLatency:  1,
		WriteLatency: 5,
		ReadEnergy:   0.26,
		WriteEnergy:  2.4,
		LeakagePower: STTMRAMLeakagePerKB * float64(capacityKB),
		CellArea:     36,
	}
}

// PureSTTMRAMParams returns the parameter set of the large monolithic
// STT-MRAM cache used by the By-NVM baseline (Table I: 1.2/2.9 nJ for the
// 128 KB array).
func PureSTTMRAMParams(capacityKB int) Params {
	p := STTMRAMParams(capacityKB)
	p.ReadEnergy = 1.2
	p.WriteEnergy = 2.9
	p.LeakagePower = 2.8 / 128.0 * float64(capacityKB)
	return p
}

// EDRAMParams returns an embedded-DRAM parameter set used only by the
// discussion-section comparison.
func EDRAMParams(capacityKB int) Params {
	return Params{
		Tech:              EDRAM,
		ReadLatency:       2,
		WriteLatency:      2,
		ReadEnergy:        0.20,
		WriteEnergy:       0.20,
		LeakagePower:      EDRAMLeakagePerKB * float64(capacityKB),
		CellArea:          80,
		RefreshIntervalUS: 40,
	}
}

// DensityRelativeToSRAM returns how many bits of this technology fit in the
// area of one SRAM bit (SRAM cell area / this cell area).
func (p *Params) DensityRelativeToSRAM() float64 {
	return 140.0 / p.CellArea
}

// CapacityForArea returns the capacity (in KB) achievable with this
// technology in the silicon area occupied by an SRAM array of sramKB
// kilobytes. This is how the paper derives the "4X larger L1D under the same
// area budget" argument.
func (p *Params) CapacityForArea(sramKB int) int {
	return int(float64(sramKB) * p.DensityRelativeToSRAM())
}

// AccessLatency returns the latency in cycles of the given access kind.
func (p *Params) AccessLatency(write bool) int {
	if write {
		return p.WriteLatency
	}
	return p.ReadLatency
}

// AccessEnergy returns the dynamic energy (nJ) of the given access kind.
func (p *Params) AccessEnergy(write bool) float64 {
	if write {
		return p.WriteEnergy
	}
	return p.ReadEnergy
}

// Bank is a stateful model of a single memory bank's timing: it tracks when
// the bank becomes free again after an access so that callers can model bank
// conflicts. The caches count their own bank traffic for the energy model.
type Bank struct {
	Params Params

	busyUntil int64
}

// NewBank creates a bank with the given technology parameters.
func NewBank(p Params) *Bank {
	return &Bank{Params: p}
}

// BusyUntil returns the cycle at which the bank finishes its current
// operation; the bank is idle if BusyUntil <= now.
func (b *Bank) BusyUntil() int64 { return b.busyUntil }

// Busy reports whether the bank is occupied at the given cycle.
func (b *Bank) Busy(now int64) bool { return b.busyUntil > now }

// Access starts a read or write at cycle now. It returns the cycle at which
// the data is available (reads) or the write completes. If the bank is busy
// the operation is serialised after the current one.
func (b *Bank) Access(now int64, write bool) int64 {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	lat := int64(b.Params.AccessLatency(write))
	b.busyUntil = start + lat
	return b.busyUntil
}

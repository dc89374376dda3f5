package cache

import (
	"errors"

	"fuse/internal/mem"
)

// DestBank identifies the cache bank a fill response should be steered to.
// The paper extends the classic MSHR "destination bits" field with internal
// cache bank IDs so that a fill can be routed to either the SRAM or the
// STT-MRAM bank of the FUSE L1D.
type DestBank uint8

const (
	// DestSRAM routes the fill to the SRAM bank.
	DestSRAM DestBank = iota
	// DestSTTMRAM routes the fill to the STT-MRAM bank.
	DestSTTMRAM
	// DestBypass indicates the data should be returned to the core without
	// being allocated in the L1D (dead-write bypass or WORO blocks).
	DestBypass
)

// String implements fmt.Stringer.
func (d DestBank) String() string {
	switch d {
	case DestSRAM:
		return "SRAM"
	case DestSTTMRAM:
		return "STT-MRAM"
	case DestBypass:
		return "bypass"
	default:
		return "unknown"
	}
}

// ErrMSHRFull is returned when no primary-miss entry can be allocated.
var ErrMSHRFull = errors.New("cache: MSHR full")

// ErrMSHRMergeFull is returned when the primary miss exists but its merge
// list is exhausted.
var ErrMSHRMergeFull = errors.New("cache: MSHR merge list full")

// MSHREntry is one outstanding primary miss: what its fill needs (the
// primary request's PC and kind, the destination bank and the read level
// predicted at miss time) and how many secondary misses merged into it.
type MSHREntry struct {
	PC    uint64
	Write bool
	Dest  DestBank
	Level mem.ReadLevel
	// merged counts the secondary misses; only the merge width bounds it.
	merged int
}

// MSHR is a miss status holding register file: a bounded map from block
// address to outstanding-miss entry with bounded merging.
type MSHR struct {
	maxEntries int
	maxMerge   int
	// entries never holds more than maxEntries blocks, so its table, sized
	// to that bound, never grows.
	entries mem.BlockTable[MSHREntry]
}

// NewMSHR creates an MSHR with the given number of primary entries and
// maximum merged requests per entry.
func NewMSHR(entries, mergeWidth int) *MSHR {
	if entries <= 0 {
		entries = 1
	}
	if mergeWidth < 0 {
		mergeWidth = 0
	}
	return &MSHR{
		maxEntries: entries,
		maxMerge:   mergeWidth,
		entries:    mem.NewBlockTable[MSHREntry](entries),
	}
}

// Full reports whether a new primary miss cannot be accepted.
func (m *MSHR) Full() bool { return m.entries.Len() >= m.maxEntries }

// Allocate records a miss for req's block. If an entry already exists the
// request is merged (subject to the merge width); otherwise a new primary
// entry is created with the given destination bank and read level.
// The boolean result reports whether the request became a new primary miss
// (true) or was merged (false).
func (m *MSHR) Allocate(req mem.Request, dest DestBank, level mem.ReadLevel) (bool, error) {
	block := req.BlockAddr()
	if e := m.entries.Ptr(block); e != nil {
		if e.merged >= m.maxMerge {
			return false, ErrMSHRMergeFull
		}
		e.merged++
		return false, nil
	}
	if m.Full() {
		return false, ErrMSHRFull
	}
	m.entries.Put(block, MSHREntry{PC: req.PC, Write: req.Kind == mem.Write, Dest: dest, Level: level})
	return true, nil
}

// Release removes the entry for the block (on fill) and returns it. The
// second result is false if no entry existed.
func (m *MSHR) Release(block uint64) (MSHREntry, bool) { return m.entries.Delete(block) }

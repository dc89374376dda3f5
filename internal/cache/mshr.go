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

// MSHREntry tracks one outstanding primary miss and the secondary misses
// merged into it.
type MSHREntry struct {
	Block   uint64
	Primary mem.Request
	Merged  []mem.Request
	Dest    DestBank
	// Level is the read level predicted for the block at miss time; the
	// arbiter uses it when the fill returns.
	Level mem.ReadLevel
}

// MSHR is a miss status holding register file: a bounded map from block
// address to outstanding-miss entry with bounded merging.
type MSHR struct {
	maxEntries int
	maxMerge   int
	// entries never holds more than maxEntries blocks, so its table, sized
	// to that bound, never grows.
	entries mem.BlockTable[*MSHREntry]
	// free recycles released entries (see Recycle): the MSHR working set is
	// bounded by maxEntries, so the steady state of a miss-heavy run
	// allocates no entry structs at all.
	free []*MSHREntry
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
		entries:    mem.NewBlockTable[*MSHREntry](entries),
	}
}

// Capacity returns the number of primary entries.
func (m *MSHR) Capacity() int { return m.maxEntries }

// Occupancy returns the number of outstanding primary misses.
func (m *MSHR) Occupancy() int { return m.entries.Len() }

// Full reports whether a new primary miss cannot be accepted.
func (m *MSHR) Full() bool { return m.entries.Len() >= m.maxEntries }

// Lookup returns the entry for the block, if any.
func (m *MSHR) Lookup(block uint64) (*MSHREntry, bool) { return m.entries.Get(block) }

// Allocate records a miss for req's block. If an entry already exists the
// request is merged (subject to the merge width); otherwise a new primary
// entry is created with the given destination bank and read level.
// The boolean result reports whether the request became a new primary miss
// (true) or was merged (false).
func (m *MSHR) Allocate(req mem.Request, dest DestBank, level mem.ReadLevel) (bool, error) {
	block := req.BlockAddr()
	if e, ok := m.entries.Get(block); ok {
		if len(e.Merged) >= m.maxMerge {
			return false, ErrMSHRMergeFull
		}
		e.Merged = append(e.Merged, req)
		return false, nil
	}
	if m.Full() {
		return false, ErrMSHRFull
	}
	var e *MSHREntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free = m.free[:n-1]
		*e = MSHREntry{Block: block, Primary: req, Merged: e.Merged[:0], Dest: dest, Level: level}
	} else {
		e = &MSHREntry{Block: block, Primary: req, Dest: dest, Level: level}
	}
	m.entries.Put(block, e)
	return true, nil
}

// Release removes the entry for the block (on fill) and returns it. The
// second result is false if no entry existed.
func (m *MSHR) Release(block uint64) (*MSHREntry, bool) { return m.entries.Delete(block) }

// Recycle returns a released entry to the MSHR's free list so a later
// Allocate can reuse it. Callers hand the entry back once they are done with
// its fields; the entry must not be used afterwards.
func (m *MSHR) Recycle(e *MSHREntry) {
	if e == nil {
		return
	}
	m.free = append(m.free, e)
}

// Package core implements the paper's contribution: the FUSE heterogeneous
// L1D cache that fuses a small SRAM bank with a larger STT-MRAM bank behind a
// single cache controller. The package provides all seven L1D organisations
// evaluated in the paper (L1-SRAM, FA-SRAM, By-NVM, Hybrid, Base-FUSE,
// FA-FUSE and Dy-FUSE) behind one L1D interface so that the simulator and the
// experiment harness can swap them freely.
package core

import (
	"fuse/internal/cache"
	"fuse/internal/config"
	"fuse/internal/mem"
	"fuse/internal/predictor"
)

// AccessOutcome describes how the L1D handled a request presented by the SM.
type AccessOutcome uint8

const (
	// OutcomeHit means the request was serviced on-chip; the data is ready
	// after AccessResult.Latency cycles.
	OutcomeHit AccessOutcome = iota
	// OutcomeMiss means a new primary miss was allocated; the warp must
	// wait for the corresponding Fill.
	OutcomeMiss
	// OutcomeMissMerged means the request was merged into an outstanding
	// miss for the same block.
	OutcomeMissMerged
	// OutcomeBypass means the request will be serviced by the L2 without
	// allocating an L1D line (dead-write bypass or predicted WORO block).
	// Like a miss, the warp waits for the Fill.
	OutcomeBypass
	// OutcomeStall means the cache could not accept the request this cycle
	// (bank busy, MSHR full, tag queue full); the SM must retry.
	OutcomeStall
)

// String implements fmt.Stringer.
func (o AccessOutcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeMissMerged:
		return "miss-merged"
	case OutcomeBypass:
		return "bypass"
	case OutcomeStall:
		return "stall"
	default:
		return "unknown"
	}
}

// AccessResult is returned by L1D.Access.
type AccessResult struct {
	Outcome AccessOutcome
	// Latency is the number of cycles until the data is available, only
	// meaningful for OutcomeHit.
	Latency int
	// Bank reports which bank serviced the hit or will receive the fill.
	Bank cache.DestBank
}

// StallReason classifies why an access was rejected (for Figure 15).
type StallReason uint8

const (
	// StallNone means the access was not stalled.
	StallNone StallReason = iota
	// StallSTTWrite means the cache was blocked by an in-flight STT-MRAM
	// write (the dominant stall source in the unoptimised Hybrid cache).
	StallSTTWrite
	// StallTagSearch means the associativity-approximation logic was still
	// searching the tag array.
	StallTagSearch
	// StallMSHR means no MSHR entry (or merge slot) was available.
	StallMSHR
	// StallStructural covers full swap buffers and tag queues.
	StallStructural
)

// Stats aggregates every counter the paper's figures need from an L1D cache.
type Stats struct {
	Accesses uint64
	Reads    uint64
	Writes   uint64

	Hits     uint64
	SRAMHits uint64
	STTHits  uint64
	SwapHits uint64
	// QueueHits counts lookups served by the tag-queue snoop: the block's
	// fill or migration is queued but not yet written into the STT-MRAM
	// array, so the cache already owns it.
	QueueHits  uint64
	Misses     uint64
	MergedMiss uint64
	Bypasses   uint64

	// Stall cycles by reason (Figure 15).
	STTWriteStallCycles  uint64
	TagSearchStallCycles uint64
	MSHRStallEvents      uint64
	StructuralStalls     uint64

	// Bank-level traffic, including fills, migrations and write-backs.
	SRAMReads  uint64
	SRAMWrites uint64
	STTReads   uint64
	STTWrites  uint64

	// Data movement between banks and toward the L2.
	MigrationsToSTT  uint64
	MigrationsToSRAM uint64
	EvictionsToL2    uint64
	Writebacks       uint64
	TagQueueFlushes  uint64

	// OutgoingRequests counts references sent over the interconnect
	// (misses + write-backs); this is the quantity the paper's headline
	// "32% fewer outgoing memory references" refers to.
	OutgoingRequests uint64

	// Predictor accuracy (Figure 16).
	Accuracy predictor.AccuracyTracker
}

// MissRate returns misses (including bypasses) over accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.Bypasses) / float64(s.Accesses)
}

// HitRate returns hits over accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// TotalStallCycles returns the sum of all stall cycles.
func (s *Stats) TotalStallCycles() uint64 {
	return s.STTWriteStallCycles + s.TagSearchStallCycles + s.StructuralStalls
}

// L1D is the interface shared by the seven cache organisations. The simulator
// drives it with Access/Fill/Tick and drains outgoing traffic with
// PopOutgoing.
type L1D interface {
	// Kind identifies the configuration.
	Kind() config.L1DKind
	// Access presents one (coalesced) memory request at cycle `now`.
	Access(req mem.Request, now int64) AccessResult
	// Fill delivers the data for a previously missed block at cycle `now`
	// and returns the number of requests (primary and merged) it served, 0
	// when no miss on the block was outstanding.
	Fill(block uint64, now int64) int
	// PopOutgoing returns the next request that must be sent toward the L2
	// (a miss or a write-back), if any.
	PopOutgoing() (mem.Request, bool)
	// Tick advances internal machinery (tag queue drain, swap buffer
	// retirement) by one cycle.
	Tick(now int64)
	// NextInternalEventAt returns the next cycle (>= now) at which the
	// cache's internal machinery can make progress on its own — e.g. the
	// STT-MRAM bank freeing while tag-queue operations wait to drain — or
	// -1 when it is idle. A simulator that fast-forwards over idle cycles
	// must not skip past this cycle, or tag-queue retirements would slip
	// and change the timing relative to cycle-by-cycle execution.
	NextInternalEventAt(now int64) int64
	// StallHold returns, right after an Access that returned OutcomeStall,
	// the first cycle at which presenting the same request again could
	// behave differently, assuming no Fill arrives and Tick retires nothing
	// before then. Every earlier attempt stalls again with the same
	// counter changes, which lets a simulator put the requesting SM to
	// sleep and replay the rejected attempts when it wakes. math.MaxInt64
	// means only a Fill or the internal machinery can end the stall; 0
	// means no hold: each attempt changes state, so none may be skipped.
	StallHold() int64
	// RepeatStall charges, right after an Access that returned OutcomeStall
	// with a non-zero hold, n more presentations of the same request before
	// the hold, with no Fill and no Tick in between: every counter the n
	// rejected attempts would have moved, in O(1) instead of n Accesses. A
	// cache that never reports a hold has no repeat to charge and panics.
	RepeatStall(n uint64)
	// Stats exposes the accumulated counters.
	Stats() *Stats
}

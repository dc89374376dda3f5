// Package core implements the paper's contribution: the FUSE heterogeneous
// L1D cache that fuses a small SRAM bank with a larger STT-MRAM bank behind a
// single cache controller. The package provides all seven L1D organisations
// evaluated in the paper (L1-SRAM, FA-SRAM, By-NVM, Hybrid, Base-FUSE,
// FA-FUSE and Dy-FUSE) behind one L1D interface so that the simulator and the
// experiment harness can swap them freely.
package core

import (
	"math"

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

// L1D is the interface shared by the seven cache organisations. The simulator
// drives it with Access/Fill/Tick and drains outgoing traffic with
// PopOutgoing.
type L1D interface {
	// Kind identifies the configuration.
	Kind() config.L1DKind
	// Access presents one (coalesced) memory request at cycle `now`.
	Access(req mem.Request, now int64) AccessResult
	// Fill delivers the data for a previously missed block at cycle `now`;
	// a block with no outstanding miss changes nothing.
	Fill(block uint64, now int64)
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

// l1dBase is the skeleton both L1D types share: the configuration, the MSHR
// file, the outgoing FIFO toward the L2, the held stall and the counters,
// plus the access accounting, the miss tail and the write-back. Each type
// keeps only its own decisions: what a hit costs, where a miss goes and what
// a fill evicts.
type l1dBase struct {
	cfg  config.L1DConfig
	mshr *cache.MSHR

	// outgoing is a head-indexed FIFO of misses and write-backs bound for
	// the interconnect; popping advances outHead instead of reslicing, so
	// the backing array is reused once the FIFO drains.
	outgoing []mem.Request
	outHead  int
	// stallHold is the StallHold of the latest rejected access, and held
	// what presenting that access once more moves (see RepeatStall).
	stallHold int64
	held      heldStall
	stats     Stats
}

// heldStall is what re-presenting a rejected access moves again: the tag
// search cycles through the approximation logic when the access reached it,
// and, for a full MSHR file or merge list, the rejection itself. Nothing else
// moves in the base: the search reads filters and tags that only an accepted
// access, a Fill or a Tick changes, the access counters are undone within
// each attempt, and the first rejection inside a blocking window or a busy
// bank's write already charged the hybrid cache's STT-write stall cycles up
// to its end.
type heldStall struct {
	reason StallReason
	// searchCycles is what the access's tag search through the
	// approximation logic cost (0 when it made none).
	searchCycles int
}

func newL1DBase(cfg config.L1DConfig) l1dBase {
	return l1dBase{cfg: cfg, mshr: cache.NewMSHR(cfg.MSHREntries, cfg.MSHRMergeWidth)}
}

// Kind implements L1D.
func (b *l1dBase) Kind() config.L1DKind { return b.cfg.Kind }

// Stats implements L1D.
func (b *l1dBase) Stats() *Stats { return &b.stats }

// StallHold implements L1D. Every stall path depends only on state that an
// accepted access, a Fill or a Tick changes, plus the clock against a
// blocking window or a bank's busy window; the read-level predictor observes
// only accepted accesses.
func (b *l1dBase) StallHold() int64 { return b.stallHold }

// RepeatStall implements L1D: each of the n repeats pays the recorded tag
// search's cycles again and, for an MSHR rejection, the rejection itself.
func (b *l1dBase) RepeatStall(n uint64) {
	b.stats.TagSearchStallCycles += n * uint64(b.held.searchCycles)
	if b.held.reason == StallMSHR {
		b.stats.MSHRStallEvents += n
	}
}

// stall rejects the access, recording the cycle the rejection holds until
// and what repeating it moves.
func (b *l1dBase) stall(until int64, reason StallReason, searchCycles int) AccessResult {
	b.stallHold = until
	b.held = heldStall{reason: reason, searchCycles: searchCycles}
	return AccessResult{Outcome: OutcomeStall}
}

// countAccess counts an access the cache looks up.
func (b *l1dBase) countAccess(write bool) {
	b.stats.Accesses++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
}

// undoAccess reverses countAccess when the access is rejected after the
// lookup (the SM will retry it).
func (b *l1dBase) undoAccess(write bool) {
	b.stats.Accesses--
	if write {
		b.stats.Writes--
	} else {
		b.stats.Reads--
	}
}

// miss is the miss tail both types share: it allocates an MSHR entry for
// the request's block with the fill's destination and read level, or merges
// into the outstanding one, counts the miss or bypass, and queues a primary
// miss toward the L2. A full MSHR file or merge list rejects the access
// instead and undoes its access counters; only a Fill releases an entry or a
// merge slot, so the rejection holds until one arrives. searchCycles is what
// the access's tag search cost.
func (b *l1dBase) miss(req mem.Request, dest cache.DestBank, level mem.ReadLevel, searchCycles int) AccessResult {
	primary, err := b.mshr.Allocate(req, dest, level)
	if err != nil {
		b.stats.MSHRStallEvents++
		b.undoAccess(req.Kind == mem.Write)
		return b.stall(math.MaxInt64, StallMSHR, searchCycles)
	}
	if dest == cache.DestBypass {
		b.stats.Bypasses++
	} else {
		b.stats.Misses++
	}
	if !primary {
		b.stats.MergedMiss++
		return AccessResult{Outcome: OutcomeMissMerged}
	}
	out := req
	out.Addr = req.BlockAddr()
	out.Kind = mem.Read
	b.outgoing = append(b.outgoing, out)
	b.stats.OutgoingRequests++
	if dest == cache.DestBypass {
		return AccessResult{Outcome: OutcomeBypass}
	}
	return AccessResult{Outcome: OutcomeMiss}
}

// writeback queues a dirty eviction toward the L2.
func (b *l1dBase) writeback(line cache.Line, now int64) {
	b.stats.Writebacks++
	b.stats.OutgoingRequests++
	b.outgoing = append(b.outgoing, mem.Request{
		Addr:  line.Block,
		PC:    line.PC,
		Kind:  mem.Write,
		Issue: now,
	})
}

// PopOutgoing implements L1D.
func (b *l1dBase) PopOutgoing() (mem.Request, bool) {
	if b.outHead >= len(b.outgoing) {
		return mem.Request{}, false
	}
	req := b.outgoing[b.outHead]
	b.outHead++
	if b.outHead == len(b.outgoing) {
		b.outgoing = b.outgoing[:0]
		b.outHead = 0
	}
	return req, true
}

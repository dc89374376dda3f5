package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"fuse/internal/core"
	"fuse/internal/mem"
	"fuse/internal/trace"
)

// SMStats is the per-SM performance accounting. Only the SM writes it: every
// cycle is charged to one cause by SM.charge, and SM.Stats hands out a copy.
type SMStats struct {
	// Cycles is the number of cycles the SM has been charged, cycled or
	// caught up (see SM.CatchUp).
	Cycles uint64
	// Issued is the number of instructions issued.
	Issued uint64
	// MemInstructions is the number of memory instructions issued. Tests
	// read it to sanity-check a workload's memory mix; the figures use
	// L1D.Accesses for memory volume.
	MemInstructions uint64
	// L1DStallCycles counts cycles wasted because the L1D rejected the
	// memory instruction at the head of the selected warp. The figures take
	// stall causes from the L1D's own counters; this per-SM total is a term
	// of the cycle ledger Cycles = Issued + L1DStallCycles +
	// NoReadyWarpCycles, which tests assert.
	L1DStallCycles uint64
	// NoReadyWarpCycles counts cycles in which no warp could issue. The
	// figures consume its MemWaitCycles subset (Figure 1); the whole count is
	// the ledger's third term.
	NoReadyWarpCycles uint64
	// MemWaitCycles counts the no-ready-warp cycles in which at least one
	// warp was blocked on an outstanding off-chip fill; this is the
	// quantity behind the paper's Figure 1 off-chip overhead analysis.
	MemWaitCycles uint64
}

// SM is one streaming multiprocessor: a set of resident warps, a shared
// instruction stream (any trace.Source), and a private L1D cache.
type SM struct {
	// ID is the SM index within the GPU.
	ID int

	// warps is stored flat (struct-of-values, not per-warp heap objects):
	// one contiguous backing array is both allocation-free and
	// cache-friendly. All access is by index/pointer because the scheduler
	// mutates warps through SM methods.
	warps  []Warp
	source trace.Source
	l1d    core.L1D

	// pending holds, per warp, the memory instruction that was rejected by
	// the L1D (to be retried); pendingSet marks the slots that are live.
	// Storing values rather than pointers keeps the retry path off the heap.
	pending    []trace.Instruction
	pendingSet []bool

	// waiting maps an outstanding block address to the warps blocked on it.
	// Each entry holds at least one warp and a warp waits on one block at a
	// time, so its table, sized to the warp count, never grows.
	waiting mem.BlockTable[[]int]
	// idFree recycles the waiter-ID slices that DeliverFill releases, so the
	// steady state of a memory-bound run allocates no per-miss slices.
	idFree [][]int

	// Greedy-then-oldest picks the greedy warp while it is ready, otherwise
	// the ready warp that issued least recently, the lowest index breaking
	// ties. Warps are kept in that order in issue-order slots: order[s] is
	// the warp in slot s (-1 when empty), and a warp that issues moves to
	// the tail slot. Warps that never issued hold slots 0..W-1 in index
	// order; a warp issuing at cycle 0 keeps its slot, because its issue
	// time ties with theirs. The ring has 2W slots and is compacted when the
	// tail reaches its end, which is amortised O(1) per issue. ready has bit
	// s set when the warp in slot s is WarpReady, so the oldest ready warp is
	// the first set bit. timed has bit w set when warp w is WarpWaiting, and
	// minWake is the earliest WakeAt among them (math.MaxInt64 when none).
	// live counts the warps not yet done.
	order   []int32
	tail    int
	ready   []uint64
	timed   []uint64
	minWake int64
	live    int

	// greedyWarp is the warp the GTO scheduler sticks with until it stalls.
	greedyWarp int
	// hold is the L1D's StallHold for the greedy warp's rejected access, or
	// 0 when no stall is held. Until the hold, a fill or the L1D's next
	// internal event, every cycle would re-present the access and be
	// rejected again, so the SM sleeps and CatchUp replays them.
	hold int64

	// chargedTo is the SM's clock: every cycle before it has been charged to
	// stats, by Cycle or by CatchUp.
	chargedTo int64
	stats     SMStats
}

// cause is what an SM-cycle is charged to; each cycle has exactly one.
type cause uint8

const (
	causeIssued      cause = iota // an instruction issued
	causeL1DStall                 // the L1D rejected the selected warp's access
	causeNoReadyWarp              // no warp could issue
)

// charge is the only writer of the cycle ledger: it charges n cycles to
// cause c, so Cycles = Issued + L1DStallCycles + NoReadyWarpCycles holds by
// construction. A cycle that issues nothing while fills are outstanding is
// also off-chip wait: a rejection then is, in effect, back-pressure from the
// memory system (MSHR or queue full).
func (sm *SM) charge(c cause, n uint64) {
	sm.stats.Cycles += n
	switch c {
	case causeIssued:
		sm.stats.Issued += n
		return
	case causeL1DStall:
		sm.stats.L1DStallCycles += n
	case causeNoReadyWarp:
		sm.stats.NoReadyWarpCycles += n
	}
	if sm.waiting.Len() > 0 {
		sm.stats.MemWaitCycles += n
	}
}

// words returns the number of 64-bit words a set of n bits takes.
func words(n int) int { return (n + 63) >> 6 }

// NewSM builds an SM with the given number of warps, each executing
// `instrPerWarp` instructions of the source stream, backed by the given L1D
// cache.
func NewSM(id, warps int, instrPerWarp uint64, source trace.Source, l1d core.L1D) *SM {
	if warps <= 0 {
		warps = 1
	}
	sm := &SM{
		ID:         id,
		source:     source,
		l1d:        l1d,
		waiting:    mem.NewBlockTable[[]int](warps),
		warps:      make([]Warp, warps),
		pending:    make([]trace.Instruction, warps),
		pendingSet: make([]bool, warps),
		order:      make([]int32, 2*warps),
		ready:      make([]uint64, words(2*warps)),
		timed:      make([]uint64, words(warps)),
	}
	// Every warp starts ready, in its never-issued slot.
	for i := range sm.order {
		sm.order[i] = -1
	}
	for i := range sm.warps {
		sm.warps[i] = Warp{ID: i, Budget: instrPerWarp, slot: i}
		sm.order[i] = int32(i)
		setBit(sm.ready, i)
	}
	sm.tail = warps
	sm.minWake = math.MaxInt64
	sm.live = warps
	return sm
}

// L1D exposes the SM's cache.
func (sm *SM) L1D() core.L1D { return sm.l1d }

// Stats returns a copy of the SM's performance counters.
func (sm *SM) Stats() SMStats { return sm.stats }

// Done reports whether every warp has retired its budget.
func (sm *SM) Done() bool { return sm.live == 0 }

// NextSelfEventAt returns the earliest cycle >= now at which the SM can make
// progress without external input: a warp that can issue (possibly right
// now), a timed warp wake-up, or the L1D's internal machinery retiring
// background work. It returns -1 when every live warp is blocked on an
// outstanding fill and the cache is idle — the SM then sleeps until the
// simulator delivers a fill. The sparse cycle engine schedules SM wake-ups
// from this bound; it must never be later than the first cycle at which
// cycling the SM would do real work, or skipped cycles would change timing.
//
// While a stall is held (Holding), the greedy warp stays picked and
// re-presents its rejected access every cycle, so no other warp can issue
// before the hold ends: the bound is the hold or the L1D's next internal
// event, whichever comes first, and -1 when only a fill can end the stall.
// CatchUp replays the cycles slept through.
func (sm *SM) NextSelfEventAt(now int64) int64 {
	if sm.hold != 0 {
		next := sm.hold
		if next == math.MaxInt64 {
			next = -1
		}
		if l1 := sm.l1d.NextInternalEventAt(now); l1 >= 0 && (next < 0 || l1 < next) {
			next = l1
		}
		if next >= 0 && next < now {
			next = now
		}
		return next
	}
	if firstBit(sm.ready) >= 0 || sm.minWake <= now {
		return now
	}
	next := int64(-1)
	if sm.minWake != math.MaxInt64 {
		next = sm.minWake
	}
	if l1 := sm.l1d.NextInternalEventAt(now); l1 >= 0 && (next < 0 || l1 < next) {
		next = l1
	}
	return next
}

// pickWarp implements the greedy-then-oldest scheduling policy: keep issuing
// from the current warp while it is ready, otherwise fall back to the oldest
// (least recently issued) ready warp, which is the first ready slot in issue
// order. A timed-wait warp whose wake-up time has come counts as ready; the
// greedy warp is promoted on its own, the others only when the pick falls
// back to the issue order.
func (sm *SM) pickWarp(now int64) *Warp {
	switch g := &sm.warps[sm.greedyWarp]; {
	case g.State == WarpReady:
		return g
	case g.State == WarpWaiting && g.WakeAt <= now:
		sm.promote(g)
		if g.WakeAt == sm.minWake {
			sm.promoteDue(math.MinInt64) // recomputes minWake, promotes nothing
		}
		return g
	}
	if sm.minWake <= now {
		sm.promoteDue(now)
	}
	s := firstBit(sm.ready)
	if s < 0 {
		return nil
	}
	w := &sm.warps[sm.order[s]]
	sm.greedyWarp = w.ID
	return w
}

func setBit(set []uint64, i int)      { set[i>>6] |= 1 << (i & 63) }
func clearBit(set []uint64, i int)    { set[i>>6] &^= 1 << (i & 63) }
func hasBit(set []uint64, i int) bool { return set[i>>6]&(1<<(i&63)) != 0 }

// firstBit returns the index of the lowest set bit, or -1 when none is set.
func firstBit(set []uint64) int {
	for i, w := range set {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// issue retires one instruction of ready warp w, picked at cycle now, and
// moves it to the tail of the issue order (except at cycle 0, see
// SM.order). A warp already in the last occupied slot is the newest already
// and stays, so a greedy run of issues moves nothing. It reports whether the
// warp is still live; a live warp stays ready until the caller blocks it.
func (sm *SM) issue(w *Warp, now int64) bool {
	if now > 0 && w.slot != sm.tail-1 {
		if sm.tail == len(sm.order) {
			sm.compact()
		}
		clearBit(sm.ready, w.slot)
		sm.order[w.slot] = -1
		w.slot = sm.tail
		sm.order[sm.tail] = int32(w.ID)
		sm.tail++
		setBit(sm.ready, w.slot)
	}
	w.Issued++
	if w.Issued >= w.Budget {
		w.State = WarpDone
		clearBit(sm.ready, w.slot)
		sm.order[w.slot] = -1
		sm.live--
		return false
	}
	return true
}

// compact moves the live warps, in issue order, to the front of the ring,
// carrying their ready bits along.
func (sm *SM) compact() {
	k := 0
	for s := 0; s < sm.tail; s++ {
		id := sm.order[s]
		if id < 0 {
			continue
		}
		if k != s {
			sm.order[k], sm.order[s] = id, -1
			sm.warps[id].slot = k
			if hasBit(sm.ready, s) {
				clearBit(sm.ready, s)
				setBit(sm.ready, k)
			}
		}
		k++
	}
	sm.tail = k
}

// setReady makes warp w ready to issue.
func (sm *SM) setReady(w *Warp) {
	w.State = WarpReady
	setBit(sm.ready, w.slot)
}

// blockFor parks ready warp w for a fixed number of cycles starting at now.
func (sm *SM) blockFor(w *Warp, now int64, cycles int) {
	if cycles <= 0 {
		return
	}
	clearBit(sm.ready, w.slot)
	w.State = WarpWaiting
	w.WakeAt = now + int64(cycles)
	setBit(sm.timed, w.ID)
	sm.minWake = min(sm.minWake, w.WakeAt)
}

// blockOnData parks ready warp w until the fill for the given block arrives.
func (sm *SM) blockOnData(w *Warp, block uint64) {
	clearBit(sm.ready, w.slot)
	w.State = WarpWaitingData
	w.PendingBlock = block
}

// wakeData makes a data-blocked warp ready again (on fill delivery).
func (sm *SM) wakeData(w *Warp) {
	if w.State == WarpWaitingData {
		w.PendingBlock = 0
		sm.setReady(w)
	}
}

// promote makes timed-wait warp w ready.
func (sm *SM) promote(w *Warp) {
	clearBit(sm.timed, w.ID)
	sm.setReady(w)
}

// promoteDue makes every timed-wait warp whose wake-up time has come by now
// ready, and recomputes minWake over the rest.
func (sm *SM) promoteDue(now int64) {
	next := int64(math.MaxInt64)
	for i, word := range sm.timed {
		for word != 0 {
			w := &sm.warps[i<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			if w.WakeAt <= now {
				sm.promote(w)
			} else {
				next = min(next, w.WakeAt)
			}
		}
	}
	sm.minWake = next
}

// Cycle advances the SM by one cycle: the L1D retires background work, warps
// whose wake-up time passed become ready, and the scheduler issues at most
// one instruction. It charges cycle now alone; the cycles since the SM was
// last charged are the caller's to charge first, with CatchUp.
func (sm *SM) Cycle(now int64) {
	sm.chargedTo = now + 1
	sm.hold = 0
	sm.l1d.Tick(now)

	w := sm.pickWarp(now)
	if w == nil {
		sm.charge(causeNoReadyWarp, 1)
		return
	}

	ins := sm.pending[w.ID]
	if !sm.pendingSet[w.ID] {
		ins = sm.source.Next(w.ID)
	}

	if !ins.IsMem {
		sm.pendingSet[w.ID] = false
		sm.issue(w, now)
		sm.charge(causeIssued, 1)
		return
	}

	req := sm.request(w.ID, ins, now)
	res := sm.l1d.Access(req, now)
	switch res.Outcome {
	case core.OutcomeStall:
		// Keep the instruction pending; the warp retries next cycle.
		sm.pending[w.ID] = ins
		sm.pendingSet[w.ID] = true
		sm.charge(causeL1DStall, 1)
		sm.hold = sm.l1d.StallHold()
		return
	case core.OutcomeHit:
		sm.pendingSet[w.ID] = false
		live := sm.issue(w, now)
		sm.charge(causeIssued, 1)
		sm.stats.MemInstructions++
		if live {
			sm.blockFor(w, now, res.Latency)
		}
	case core.OutcomeMiss, core.OutcomeMissMerged, core.OutcomeBypass:
		sm.pendingSet[w.ID] = false
		live := sm.issue(w, now)
		sm.charge(causeIssued, 1)
		sm.stats.MemInstructions++
		block := req.BlockAddr()
		if live {
			sm.blockOnData(w, block)
			if ids := sm.waiting.Ptr(block); ids != nil {
				*ids = append(*ids, w.ID)
			} else {
				var fresh []int
				if n := len(sm.idFree); n > 0 {
					fresh = sm.idFree[n-1]
					sm.idFree = sm.idFree[:n-1]
				}
				sm.waiting.Put(block, append(fresh, w.ID))
			}
		}
	}
}

// request builds the L1D request of a warp's memory instruction issued at
// cycle now.
func (sm *SM) request(warp int, ins trace.Instruction, now int64) mem.Request {
	return mem.Request{
		Addr:  ins.Addr,
		PC:    ins.PC,
		Kind:  ins.Kind,
		SM:    sm.ID,
		Warp:  warp,
		Issue: now,
	}
}

// Holding reports whether the SM is sleeping through a held stall (see
// NextSelfEventAt): CatchUp replays its skipped cycles as rejections of the
// held access, not as idle cycles.
func (sm *SM) Holding() bool { return sm.hold != 0 }

// CatchUp charges the cycles [chargedTo, now) that the SM slept through,
// exactly as cycling it through each of them would have: the sparse engine
// never cycles a sleeping SM, so it calls CatchUp before anything that reads
// or changes what those cycles depend on (the next Cycle, a fill delivery,
// the end of the run). A holding SM replays its held stall; any other
// sleeping SM had no ready warp. A done SM is charged nothing. An SM already
// charged past now was cycled through time it had not lived yet, a broken
// engine invariant, so it panics.
func (sm *SM) CatchUp(now int64) {
	from := sm.chargedTo
	if from > now {
		sm.broken("caught up to cycle %d, but it is already charged to cycle %d", now, from)
	}
	if sm.Done() || from == now {
		return
	}
	sm.chargedTo = now
	if sm.hold != 0 {
		sm.replayStalls(from, now)
		return
	}
	sm.charge(causeNoReadyWarp, uint64(now-from))
}

// replayStalls performs the cycles [from, to) of a held stall exactly as
// Cycle would have: each one re-presents the greedy warp's rejected access
// to the L1D, with a fresh issue cycle, and is rejected again.
// The first re-presentation goes through the real Access; a replayed access
// that is not rejected means the hold was wrong, which would silently change
// results, so it panics. Until the hold nothing the rejection depends on can
// change — the caller stops before the L1D's next internal event (so Tick is
// skipped: it would have done nothing) and before any fill — so every later
// cycle repeats that rejection with identical counter changes, and the rest
// are charged in one step: the stall cycles and the L1D's RepeatStall.
func (sm *SM) replayStalls(from, to int64) {
	if sm.hold != math.MaxInt64 && to > sm.hold {
		sm.broken("replays stalled cycles past its hold (cycle %d, hold %d)", to, sm.hold)
	}
	w := sm.greedyWarp
	if res := sm.l1d.Access(sm.request(w, sm.pending[w], from), from); res.Outcome != core.OutcomeStall {
		sm.broken("had a held access accepted (cycle %d, hold %d)", from, sm.hold)
	}
	n := uint64(to - from)
	sm.charge(causeL1DStall, n)
	if n > 1 {
		sm.l1d.RepeatStall(n - 1)
	}
}

// broken reports a broken charging invariant. It stays out of line so that
// the message's allocation is not inlined into the allocation-free charge
// paths.
//
//go:noinline
func (sm *SM) broken(format string, cycle, mark int64) {
	panic(fmt.Sprintf("gpu: SM %d "+format, sm.ID, cycle, mark))
}

// PopOutgoing drains one outgoing request (miss or write-back) from the L1D.
func (sm *SM) PopOutgoing() (mem.Request, bool) { return sm.l1d.PopOutgoing() }

// DeliverFill hands a returning block to the L1D and wakes every warp that
// was blocked on it, returning how many it woke.
func (sm *SM) DeliverFill(block uint64, now int64) int {
	sm.hold = 0
	sm.l1d.Fill(block, now)
	ids, ok := sm.waiting.Delete(block)
	for _, id := range ids {
		sm.wakeData(&sm.warps[id])
	}
	n := len(ids)
	if ok {
		sm.idFree = append(sm.idFree, ids[:0])
	}
	return n
}

package gpu

import (
	"fmt"
	"math"

	"fuse/internal/core"
	"fuse/internal/mem"
	"fuse/internal/trace"
)

// SMStats is the per-SM performance accounting.
type SMStats struct {
	// Cycles is the number of cycles the SM has been clocked.
	Cycles uint64
	// Issued is the number of instructions issued.
	Issued uint64
	// MemInstructions is the number of memory instructions issued.
	//fuselint:internalstat exposed for workload sanity checks in tests; the figures use L1D.Accesses for memory volume
	MemInstructions uint64
	// L1DStallCycles counts cycles wasted because the L1D rejected the
	// memory instruction at the head of the selected warp.
	//fuselint:internalstat structural-stall cycles are reported via core.Stats.StructuralStalls; this per-SM mirror is a debugging aid
	L1DStallCycles uint64
	// NoReadyWarpCycles counts cycles in which no warp could issue.
	//fuselint:internalstat the figures consume the MemWaitCycles subset (Figure 1); the full no-ready count is a scheduler diagnostic
	NoReadyWarpCycles uint64
	// MemWaitCycles counts the no-ready-warp cycles in which at least one
	// warp was blocked on an outstanding off-chip fill; this is the
	// quantity behind the paper's Figure 1 off-chip overhead analysis.
	MemWaitCycles uint64
}

// IPC returns instructions per cycle.
func (s *SMStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// SM is one streaming multiprocessor: a set of resident warps, a shared
// instruction stream (any trace.Source), and a private L1D cache.
//
//fuselint:smowned the unit of worker-phase ownership: each SM is advanced by exactly one worker per epoch
type SM struct {
	// ID is the SM index within the GPU.
	ID int

	// warps is stored flat (struct-of-values, not per-warp heap objects):
	// the scheduler walks every warp each cycle, so one contiguous backing
	// array is both allocation-free and cache-friendly. All access is by
	// index/pointer because Warp methods mutate through their receiver.
	warps  []Warp
	source trace.Source
	l1d    core.L1D

	// pending holds, per warp, the memory instruction that was rejected by
	// the L1D (to be retried); pendingSet marks the slots that are live.
	// Storing values rather than pointers keeps the retry path off the heap.
	pending    []trace.Instruction
	pendingSet []bool

	// waiting maps an outstanding block address to the warps blocked on it.
	waiting map[uint64][]int
	// idFree recycles the waiter-ID slices that DeliverFill releases, so the
	// steady state of a memory-bound run allocates no per-miss slices.
	idFree [][]int

	// greedyWarp is the warp the GTO scheduler sticks with until it stalls.
	greedyWarp int
	// hold is the L1D's StallHold for the greedy warp's rejected access, or
	// 0 when no stall is held. Until the hold, a fill or the L1D's next
	// internal event, every cycle would re-present the access and be
	// rejected again, so the SM sleeps and ReplayStalls replays them.
	hold int64

	nextReqID uint64
	stats     SMStats
}

// SMStorage is caller-provided backing storage for an SM's flat per-warp
// state; the simulator's arena carves these from slabs it reuses across runs.
// Slices with insufficient capacity (or a zero SMStorage) are allocated fresh.
type SMStorage struct {
	Warps      []Warp
	Pending    []trace.Instruction
	PendingSet []bool
}

// NewSM builds an SM with the given number of warps, each executing
// `instrPerWarp` instructions of the source stream, backed by the given L1D
// cache.
func NewSM(id, warps int, instrPerWarp uint64, source trace.Source, l1d core.L1D) *SM {
	return NewSMIn(id, warps, instrPerWarp, source, l1d, SMStorage{})
}

// NewSMIn is NewSM with caller-provided backing storage for the per-warp
// state (see SMStorage).
func NewSMIn(id, warps int, instrPerWarp uint64, source trace.Source, l1d core.L1D, st SMStorage) *SM {
	if warps <= 0 {
		warps = 1
	}
	if cap(st.Warps) < warps {
		st.Warps = make([]Warp, warps)
	}
	if cap(st.Pending) < warps {
		st.Pending = make([]trace.Instruction, warps)
	}
	if cap(st.PendingSet) < warps {
		st.PendingSet = make([]bool, warps)
	}
	sm := &SM{
		ID:         id,
		source:     source,
		l1d:        l1d,
		waiting:    make(map[uint64][]int),
		warps:      st.Warps[:warps],
		pending:    st.Pending[:warps],
		pendingSet: st.PendingSet[:warps],
	}
	for i := range sm.warps {
		sm.warps[i] = Warp{ID: i, Budget: instrPerWarp}
		sm.pending[i] = trace.Instruction{}
		sm.pendingSet[i] = false
	}
	return sm
}

// L1D exposes the SM's cache.
func (sm *SM) L1D() core.L1D { return sm.l1d }

// Stats exposes the SM's performance counters.
func (sm *SM) Stats() *SMStats { return &sm.stats }

// Warps returns the number of resident warps.
func (sm *SM) Warps() int { return len(sm.warps) }

// Done reports whether every warp has retired its budget.
func (sm *SM) Done() bool {
	for i := range sm.warps {
		if !sm.warps[i].Done() {
			return false
		}
	}
	return true
}

// OutstandingFills returns the number of distinct blocks the SM is waiting on.
func (sm *SM) OutstandingFills() int { return len(sm.waiting) }

// NextWakeAt returns the earliest cycle at which a currently waiting warp
// becomes ready on its own (ignoring data-blocked warps, which are woken by
// fills). It returns -1 when no warp is in the timed-wait state.
func (sm *SM) NextWakeAt() int64 {
	next := int64(-1)
	for i := range sm.warps {
		if w := &sm.warps[i]; w.State == WarpWaiting {
			if next < 0 || w.WakeAt < next {
				next = w.WakeAt
			}
		}
	}
	return next
}

// HasReadyWarp reports whether any warp can issue at the given cycle.
func (sm *SM) HasReadyWarp(now int64) bool {
	for i := range sm.warps {
		if w := &sm.warps[i]; !w.Done() && w.ReadyAt(now) {
			return true
		}
	}
	return false
}

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
// The cycles slept through are replayed with ReplayStalls.
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
	next := int64(-1)
	for i := range sm.warps {
		w := &sm.warps[i]
		switch w.State {
		case WarpReady:
			return now
		case WarpWaiting:
			if w.WakeAt <= now {
				return now
			}
			if next < 0 || w.WakeAt < next {
				next = w.WakeAt
			}
		}
	}
	if l1 := sm.l1d.NextInternalEventAt(now); l1 >= 0 && (next < 0 || l1 < next) {
		next = l1
	}
	return next
}

// pickWarp implements the greedy-then-oldest scheduling policy: keep issuing
// from the current warp while it is ready, otherwise fall back to the oldest
// (lowest last-issue time) ready warp.
func (sm *SM) pickWarp(now int64) *Warp {
	if g := &sm.warps[sm.greedyWarp]; !g.Done() && g.ReadyAt(now) {
		return g
	}
	var best *Warp
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.Done() || !w.ReadyAt(now) {
			continue
		}
		if best == nil || w.lastIssue < best.lastIssue {
			best = w
		}
	}
	if best != nil {
		sm.greedyWarp = best.ID
	}
	return best
}

// Cycle advances the SM by one cycle: the L1D retires background work, warps
// whose wake-up time passed become ready, and the scheduler issues at most
// one instruction.
//
//fuselint:noalloc
func (sm *SM) Cycle(now int64) {
	sm.stats.Cycles++
	sm.hold = 0
	sm.l1d.Tick(now)

	w := sm.pickWarp(now)
	if w == nil {
		sm.stats.NoReadyWarpCycles++
		if len(sm.waiting) > 0 {
			sm.stats.MemWaitCycles++
		}
		return
	}

	ins := sm.pending[w.ID]
	if !sm.pendingSet[w.ID] {
		ins = sm.source.Next(w.ID)
	}

	if !ins.IsMem {
		sm.pendingSet[w.ID] = false
		w.lastIssue = now
		w.RetireOne()
		sm.stats.Issued++
		return
	}

	req := sm.request(w.ID, ins, now)
	res := sm.l1d.Access(req, now)
	switch res.Outcome {
	case core.OutcomeStall:
		// Keep the instruction pending; the warp retries next cycle.
		sm.pending[w.ID] = ins
		sm.pendingSet[w.ID] = true
		sm.chargeStall()
		sm.hold = sm.l1d.StallHold()
		return
	case core.OutcomeHit:
		sm.pendingSet[w.ID] = false
		w.lastIssue = now
		w.RetireOne()
		sm.stats.Issued++
		sm.stats.MemInstructions++
		if !w.Done() {
			w.BlockFor(now, res.Latency)
		}
	case core.OutcomeMiss, core.OutcomeMissMerged, core.OutcomeBypass:
		sm.pendingSet[w.ID] = false
		w.lastIssue = now
		w.RetireOne()
		sm.stats.Issued++
		sm.stats.MemInstructions++
		block := req.BlockAddr()
		if !w.Done() {
			w.BlockOnData(block)
			ids, ok := sm.waiting[block]
			if !ok && len(sm.idFree) > 0 {
				ids = sm.idFree[len(sm.idFree)-1]
				sm.idFree = sm.idFree[:len(sm.idFree)-1]
			}
			sm.waiting[block] = append(ids, w.ID)
		}
	}
}

// request builds the L1D request of a warp's memory instruction issued at
// cycle now, consuming one request ID.
func (sm *SM) request(warp int, ins trace.Instruction, now int64) mem.Request {
	req := mem.Request{
		Addr:  ins.Addr,
		PC:    ins.PC,
		Kind:  ins.Kind,
		Size:  mem.BlockSize,
		SM:    sm.ID,
		Warp:  warp,
		Issue: now,
		ID:    sm.nextReqID,
	}
	sm.nextReqID++
	return req
}

// chargeStall counts a cycle whose access the L1D rejected. When the
// rejection happens while fills are outstanding it is, in effect,
// back-pressure from the off-chip memory system (MSHR or queue full), so it
// also counts toward the off-chip wait time.
func (sm *SM) chargeStall() {
	sm.stats.L1DStallCycles++
	if len(sm.waiting) > 0 {
		sm.stats.MemWaitCycles++
	}
}

// Holding reports whether the SM is sleeping through a held stall (see
// NextSelfEventAt): its skipped cycles must be replayed with ReplayStalls,
// not charged as idle.
func (sm *SM) Holding() bool { return sm.hold != 0 }

// ReplayStalls performs the cycles [from, to) of a held stall exactly as
// Cycle would have: each one re-presents the greedy warp's rejected access
// to the L1D, with a fresh request ID and issue cycle, and is rejected again.
// The first re-presentation goes through the real Access; a replayed access
// that is not rejected means the hold was wrong, which would silently change
// results, so it panics. Until the hold nothing the rejection depends on can
// change — the caller stops before the L1D's next internal event (so Tick is
// skipped: it would have done nothing) and before any fill — so every later
// cycle repeats that rejection with identical counter changes, and the rest
// are charged in one step: the SM's cycles, request IDs, stall and
// memory-wait cycles, and the L1D's RepeatStall.
//
//fuselint:noalloc
func (sm *SM) ReplayStalls(from, to int64) {
	if sm.hold != math.MaxInt64 && to > sm.hold {
		sm.replayFailed("replays stalled cycles past its hold", to, sm.hold)
	}
	if from >= to {
		return
	}
	w := sm.greedyWarp
	sm.stats.Cycles++
	if res := sm.l1d.Access(sm.request(w, sm.pending[w], from), from); res.Outcome != core.OutcomeStall {
		sm.replayFailed("had a held access accepted", from, sm.hold)
	}
	sm.chargeStall()
	if n := uint64(to - from - 1); n > 0 {
		sm.stats.Cycles += n
		sm.nextReqID += n
		sm.stats.L1DStallCycles += n
		if len(sm.waiting) > 0 {
			sm.stats.MemWaitCycles += n
		}
		sm.l1d.RepeatStall(n)
	}
}

// replayFailed reports a broken stall hold. It stays out of line so that the
// message's allocation is not inlined into the allocation-free replay loop.
//
//go:noinline
func (sm *SM) replayFailed(what string, cycle, hold int64) {
	panic(fmt.Sprintf("gpu: SM %d %s (cycle %d, hold %d)", sm.ID, what, cycle, hold))
}

// PopOutgoing drains one outgoing request (miss or write-back) from the L1D.
func (sm *SM) PopOutgoing() (mem.Request, bool) { return sm.l1d.PopOutgoing() }

// DeliverFill hands a returning block to the L1D and wakes every warp that
// was blocked on it.
func (sm *SM) DeliverFill(block uint64, now int64) int {
	sm.hold = 0
	woken := sm.l1d.Fill(block, now)
	ids, ok := sm.waiting[block]
	delete(sm.waiting, block)
	for _, id := range ids {
		sm.warps[id].Wake()
	}
	n := len(ids)
	if ok {
		sm.idFree = append(sm.idFree, ids[:0])
	}
	// Warps recorded in the MSHR (merged requests) may belong to this SM as
	// well; the waiting map already covers them, so the returned slice is
	// only used for its length (diagnostics).
	_ = woken
	return n
}

// Reset restores the SM to its initial state, keeping the kernel position.
func (sm *SM) Reset() {
	for i := range sm.warps {
		sm.warps[i] = Warp{ID: i, Budget: sm.warps[i].Budget}
		sm.pendingSet[i] = false
	}
	sm.waiting = make(map[uint64][]int)
	sm.idFree = nil
	sm.greedyWarp = 0
	sm.hold = 0
	sm.stats = SMStats{}
	sm.l1d.Reset()
}

package sim

import (
	"fuse/internal/gpu"
	"fuse/internal/trace"
)

// Arena is the reusable scratch region of one simulation run: the event heap
// (its keys, event slab and free list), the retry-batch slab, the wake heap,
// the lazily-charged idle accounting, the due and dirty SM sets, and the
// flat per-warp and scheduler state of every SM. A fresh simulator allocates
// all of these once and then runs allocation-free; an Arena lets a caller
// that runs many simulations back to back (engine.Runner, benchmark loops)
// reuse the buffers across runs instead of re-allocating them.
//
// Usage: build simulators with NewWithArena, and call ReleaseArena when the
// run is finished to hand the buffers back. An Arena serves one simulator at
// a time; the previous simulator must not be used once its arena has been
// reused. The zero value is ready to use.
type Arena struct {
	events     eventHeap
	retries    []retryMember
	staleTicks []staleTick
	wakeAt     []int64
	wakePos    []int
	wakeOrd    []int
	chargedTo  []int64
	dirty      []uint64
	due        []uint64
	sms        []*gpu.SM

	// Flat per-warp slabs, carved into per-SM windows by NewWithArena.
	warps      []gpu.Warp
	pending    []trace.Instruction
	pendingSet []bool
	order      []int32
	sets       []uint64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// grow returns buf resliced to length n, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers reinitialise.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// takeScratch moves the arena's buffers into the simulator (called from
// NewWithArena before the scratch structures are initialised).
func (s *Simulator) takeScratch(a *Arena, smCount, warpsPerSM int) {
	s.arena = a
	s.events = a.events
	s.events.reset()
	s.retries.members = a.retries
	s.staleTicks = a.staleTicks[:0]
	s.wake.at = a.wakeAt
	s.wake.pos = a.wakePos
	s.wake.ord = a.wakeOrd
	s.chargedTo = grow(a.chargedTo, smCount)
	clear(s.chargedTo)
	s.dirty = grow(a.dirty, smSetWords(smCount))
	clear(s.dirty)
	s.due = grow(a.due, smSetWords(smCount))
	clear(s.due)
	s.sms = grow(a.sms, smCount)
	clear(s.sms)
	a.warps = grow(a.warps, smCount*warpsPerSM)
	a.pending = grow(a.pending, smCount*warpsPerSM)
	a.pendingSet = grow(a.pendingSet, smCount*warpsPerSM)
	a.order = grow(a.order, smCount*2*warpsPerSM)
	a.sets = grow(a.sets, smCount*gpu.SetWords(warpsPerSM))
}

// smStorage carves SM i's per-warp backing out of the arena's slabs. The
// three-index slice expressions keep the windows from ever growing into a
// neighbour's region.
func (a *Arena) smStorage(i, warpsPerSM int) gpu.SMStorage {
	lo, hi := i*warpsPerSM, (i+1)*warpsPerSM
	olo, ohi := 2*lo, 2*hi
	sw := gpu.SetWords(warpsPerSM)
	slo, shi := i*sw, (i+1)*sw
	return gpu.SMStorage{
		Warps:      a.warps[lo:hi:hi],
		Pending:    a.pending[lo:hi:hi],
		PendingSet: a.pendingSet[lo:hi:hi],
		Order:      a.order[olo:ohi:ohi],
		Sets:       a.sets[slo:shi:shi],
	}
}

// ReleaseArena hands the simulator's scratch buffers back to the arena the
// simulator was built with (New's private arena, when built without one).
// The simulator must not be used afterwards once the arena is reused.
func (s *Simulator) ReleaseArena() {
	a := s.arena
	a.events = s.events
	a.events.reset()
	a.retries = s.retries.members[:0]
	a.staleTicks = s.staleTicks[:0]
	a.wakeAt = s.wake.at
	a.wakePos = s.wake.pos
	a.wakeOrd = s.wake.ord[:0]
	a.chargedTo = s.chargedTo
	a.dirty = s.dirty
	a.due = s.due
	a.sms = s.sms
}

package gpu

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuse/internal/core"
	"fuse/internal/mem"
	"fuse/internal/trace"
)

// scriptSource is a trace.Source that draws each instruction from the test's
// random stream and records which warp asked for it.
type scriptSource struct {
	rng    *rand.Rand
	picked int // warp of the last Next call (-1 when none since reset)
	isMem  bool
	addr   uint64
}

func (s *scriptSource) Next(warp int) trace.Instruction {
	s.picked = warp
	s.isMem = s.rng.IntN(3) > 0
	s.addr = uint64(1+s.rng.IntN(8)) * mem.BlockSize
	return trace.Instruction{IsMem: s.isMem, Kind: mem.Read, Addr: s.addr}
}

// scriptL1D is an L1D whose every answer is drawn from the test's random
// stream: a stall (with or without a hold), a hit with a short latency, or a
// miss. It records the warp and the answer of the last access. The methods
// the SM never calls in the test stay unimplemented (the embedded nil
// interface panics).
type scriptL1D struct {
	core.L1D
	rng     *rand.Rand
	picked  int
	res     core.AccessResult
	hold    int64
	nextInt int64
}

func (c *scriptL1D) Access(req mem.Request, now int64) core.AccessResult {
	c.picked = req.Warp
	c.hold = 0
	switch r := c.rng.IntN(10); {
	case r < 2:
		c.res = core.AccessResult{Outcome: core.OutcomeStall}
		if c.rng.IntN(2) == 0 {
			c.hold = math.MaxInt64
		}
	case r < 6:
		c.res = core.AccessResult{Outcome: core.OutcomeHit, Latency: c.rng.IntN(7)}
	default:
		c.res = core.AccessResult{Outcome: core.OutcomeMiss}
	}
	return c.res
}
func (c *scriptL1D) Fill(block uint64, now int64)        {}
func (c *scriptL1D) PopOutgoing() (mem.Request, bool)    { return mem.Request{}, false }
func (c *scriptL1D) Tick(now int64)                      {}
func (c *scriptL1D) StallHold() int64                    { return c.hold }
func (c *scriptL1D) NextInternalEventAt(now int64) int64 { return c.nextInt }

// refWarp is the reference model's view of one warp: the per-warp last-issue
// time the greedy-then-oldest scan orders by.
type refWarp struct {
	state     WarpState
	wakeAt    int64
	lastIssue int64
	issued    uint64
	budget    uint64
	block     uint64
	pending   bool
}

// refSM is the scheduler's reference model: greedy-then-oldest as a scan
// over every warp's last-issue time, the definition the issue-order sets
// must match.
type refSM struct {
	warps  []refWarp
	greedy int
}

// readyAt is the scan's readiness test: it promotes a timed-wait warp whose
// wake-up time has come.
func (w *refWarp) readyAt(now int64) bool {
	if w.state == WarpWaiting && w.wakeAt <= now {
		w.state = WarpReady
	}
	return w.state == WarpReady
}

// pick is greedy-then-oldest by scan: the greedy warp while it is ready,
// otherwise the ready warp with the lowest last-issue time, ties to the
// lowest index. It returns -1 when no warp is ready.
func (m *refSM) pick(now int64) int {
	if g := &m.warps[m.greedy]; g.state != WarpDone && g.readyAt(now) {
		return m.greedy
	}
	best := -1
	for i := range m.warps {
		w := &m.warps[i]
		if w.state == WarpDone || !w.readyAt(now) {
			continue
		}
		if best < 0 || w.lastIssue < m.warps[best].lastIssue {
			best = i
		}
	}
	if best >= 0 {
		m.greedy = best
	}
	return best
}

// nextSelfEventAt is NextSelfEventAt by scan, given the SM's held stall and
// the L1D's next internal event.
func (m *refSM) nextSelfEventAt(now, hold, l1 int64) int64 {
	next := int64(-1)
	if hold != 0 {
		next = hold
		if next == math.MaxInt64 {
			next = -1
		}
	} else {
		for i := range m.warps {
			switch w := &m.warps[i]; w.state {
			case WarpReady:
				return now
			case WarpWaiting:
				if w.wakeAt <= now {
					return now
				}
				if next < 0 || w.wakeAt < next {
					next = w.wakeAt
				}
			}
		}
	}
	if l1 >= 0 && (next < 0 || l1 < next) {
		next = l1
	}
	if hold != 0 && next >= 0 && next < now {
		next = now
	}
	return next
}

// issue retires one instruction of warp i at cycle now.
func (m *refSM) issue(i int, now int64) bool {
	w := &m.warps[i]
	w.lastIssue = now
	w.issued++
	if w.issued >= w.budget {
		w.state = WarpDone
		return false
	}
	return true
}

// checkSets asserts that the scheduler's sets agree with the warp states:
// every live warp holds exactly one slot below the tail, the ready set
// marks exactly the ready warps' slots, the timed set exactly the waiting
// warps, minWake is their earliest wake-up and live counts the warps that
// are not done.
func checkSets(t *testing.T, sm *SM, now int64) {
	t.Helper()
	live, minWake := 0, int64(math.MaxInt64)
	for i := range sm.warps {
		w := &sm.warps[i]
		if hasBit(sm.timed, i) != (w.State == WarpWaiting) {
			t.Fatalf("cycle %d: warp %d is %v but its timed bit is %v", now, i, w.State, hasBit(sm.timed, i))
		}
		if w.Done() {
			continue
		}
		live++
		if w.State == WarpWaiting {
			minWake = min(minWake, w.WakeAt)
		}
		if w.slot >= sm.tail || sm.order[w.slot] != int32(i) {
			t.Fatalf("cycle %d: warp %d claims slot %d (tail %d), which holds %d", now, i, w.slot, sm.tail, sm.order[w.slot])
		}
	}
	for s, id := range sm.order {
		ready := id >= 0 && sm.warps[id].State == WarpReady
		if hasBit(sm.ready, s) != ready {
			t.Fatalf("cycle %d: slot %d (warp %d) ready bit %v, want %v", now, s, id, hasBit(sm.ready, s), ready)
		}
		if id >= 0 && (s >= sm.tail || sm.warps[id].slot != s || sm.warps[id].Done()) {
			t.Fatalf("cycle %d: slot %d holds warp %d, which is done or sits in slot %d", now, s, id, sm.warps[id].slot)
		}
	}
	for b := len(sm.order); b < len(sm.ready)*64; b++ {
		if hasBit(sm.ready, b) {
			t.Fatalf("cycle %d: ready bit %d is set past the ring", now, b)
		}
	}
	for b := len(sm.warps); b < len(sm.timed)*64; b++ {
		if hasBit(sm.timed, b) {
			t.Fatalf("cycle %d: timed bit %d is set past the warps", now, b)
		}
	}
	if live != sm.live || minWake != sm.minWake || sm.Done() != (live == 0) {
		t.Fatalf("cycle %d: live %d minWake %d, want %d and %d", now, sm.live, sm.minWake, live, minWake)
	}
}

// TestSchedulerMatchesScan drives an SM through seeded random sequences of
// issues, hit-latency waits, data blocks, fill wake-ups, retirements and
// stalls from cycle 0, with a scripted instruction stream and L1D, next to
// the reference scan. Every pick and every NextSelfEventAt must match the
// scan's, and after every cycle the scheduler's sets must agree with the
// warp states. Warp counts cover one warp, the paper's 48, and ready sets
// that end on, just past and well past a word boundary.
func TestSchedulerMatchesScan(t *testing.T) {
	for _, warps := range []int{1, 48, 64, 65, 130} {
		for seed := uint64(1); seed <= 6; seed++ {
			runSchedulerScript(t, warps, seed, 4000)
		}
	}
}

func runSchedulerScript(t *testing.T, warps int, seed uint64, cycles int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(warps)))
	src := &scriptSource{rng: rng}
	l1d := &scriptL1D{rng: rng, nextInt: -1}
	sm := NewSM(0, warps, 1, src, l1d)
	ref := &refSM{warps: make([]refWarp, warps)}
	for i := range sm.warps {
		budget := uint64(1 + rng.IntN(60))
		sm.warps[i].Budget = budget
		ref.warps[i] = refWarp{budget: budget}
	}
	checkSets(t, sm, 0)
	now := int64(0)
	for c := 0; c < cycles && !sm.Done(); c++ {
		want := ref.pick(now)
		src.picked, l1d.picked = -1, -1
		sm.Cycle(now)
		got := src.picked
		if l1d.picked >= 0 {
			got = l1d.picked
		}
		if got != want {
			t.Fatalf("warps %d seed %d cycle %d: picked warp %d, the scan picks %d", warps, seed, now, got, want)
		}
		if want >= 0 {
			w := &ref.warps[want]
			switch {
			case !w.pending && !src.isMem:
				ref.issue(want, now)
			case l1d.res.Outcome == core.OutcomeStall:
				w.pending = true
			case l1d.res.Outcome == core.OutcomeHit:
				w.pending = false
				if ref.issue(want, now) && l1d.res.Latency > 0 {
					w.state, w.wakeAt = WarpWaiting, now+int64(l1d.res.Latency)
				}
			default:
				w.pending = false
				if ref.issue(want, now) {
					w.state, w.block = WarpWaitingData, src.addr
				}
			}
		}
		checkSets(t, sm, now)

		// Deliver a fill now and then, waking every warp blocked on it.
		if rng.IntN(4) == 0 {
			block := uint64(1+rng.IntN(8)) * mem.BlockSize
			sm.DeliverFill(block, now)
			for i := range ref.warps {
				if w := &ref.warps[i]; w.state == WarpWaitingData && w.block == block {
					w.state = WarpReady
				}
			}
			checkSets(t, sm, now)
		}
		if rng.IntN(8) == 0 {
			l1d.nextInt = now + int64(1+rng.IntN(20))
		} else {
			l1d.nextInt = -1
		}
		next := now + 1 + int64(rng.IntN(3))
		if got, want := sm.NextSelfEventAt(next), ref.nextSelfEventAt(next, sm.hold, l1d.nextInt); got != want {
			t.Fatalf("warps %d seed %d cycle %d: NextSelfEventAt(%d) = %d, the scan says %d", warps, seed, now, next, got, want)
		}
		now = next
	}
}

// BenchmarkPickWarp measures the fallback pick of a 48-warp SM whose greedy
// warp is blocked on data and whose only ready warp is the newest in issue
// order, so the scan visits every warp before finding it.
func BenchmarkPickWarp(b *testing.B) {
	const warps = 48
	sm := NewSM(0, warps, 1<<20, &scriptSource{}, &scriptL1D{})
	for c := 0; c < warps; c++ {
		w := &sm.warps[(c+1)%warps] // warp 0 issues last
		sm.issue(w, int64(c+1))
		if w.ID == 0 {
			sm.setReady(w)
		} else {
			sm.blockOnData(w, uint64(w.ID)*mem.BlockSize)
		}
	}
	now := int64(warps + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.greedyWarp = 1
		if sm.pickWarp(now) != &sm.warps[0] {
			b.Fatal("the only ready warp was not picked")
		}
	}
}

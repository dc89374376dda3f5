package gpu

import (
	"math"
	"reflect"
	"testing"

	"fuse/internal/config"
	"fuse/internal/core"
	"fuse/internal/trace"
)

func newTestSM(kind config.L1DKind, warps int, budget uint64, workload string) *SM {
	prof, ok := trace.ProfileByName(workload)
	if !ok {
		panic("unknown workload " + workload)
	}
	l1d := core.MustNew(config.NewL1DConfig(kind))
	kernel := trace.NewKernel(prof, 0, 7)
	return NewSM(0, warps, budget, kernel, l1d)
}

func TestWarpStateMachine(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 2, 2, "pathf")
	w := &sm.warps[1]
	sm.greedyWarp = 1
	if w.Done() || sm.pickWarp(0) != w {
		t.Fatalf("fresh warp should be ready")
	}
	sm.blockFor(w, 10, 5)
	sm.blockOnData(&sm.warps[0], 0x40)
	if sm.pickWarp(12) != nil {
		t.Errorf("warp should still be waiting at cycle 12")
	}
	if sm.pickWarp(15) != w || w.State != WarpReady {
		t.Errorf("warp should wake at cycle 15")
	}
	sm.blockOnData(w, 0x80)
	if sm.pickWarp(100) != nil {
		t.Errorf("data-blocked warp should not wake on its own")
	}
	sm.wakeData(w)
	if sm.pickWarp(100) != w || w.PendingBlock != 0 {
		t.Errorf("a fill should make the warp ready and clear the pending block")
	}
	checkSets(t, sm, 100)
	if !sm.issue(w, 101) || sm.issue(w, 102) || !w.Done() {
		t.Errorf("warp should be done after retiring its budget")
	}
	if sm.Done() {
		t.Errorf("the SM still has a live warp")
	}
	sm.wakeData(&sm.warps[0])
	sm.issue(&sm.warps[0], 103)
	sm.blockFor(&sm.warps[0], 104, 0)
	if sm.warps[0].State != WarpReady {
		t.Errorf("blockFor(0) should leave the warp ready")
	}
	checkSets(t, sm, 104)
}

func TestWarpStateString(t *testing.T) {
	want := map[WarpState]string{
		WarpReady:       "ready",
		WarpWaiting:     "waiting",
		WarpWaitingData: "waiting-data",
		WarpDone:        "done",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("state %d = %q, want %q", s, s.String(), str)
		}
	}
	if WarpState(99).String() == "" {
		t.Errorf("unknown state should render")
	}
}

func TestSMRunsToCompletion(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 8, 50, "2DCONV")
	if len(sm.warps) != 8 {
		t.Fatalf("%d warps, want 8", len(sm.warps))
	}
	now := int64(0)
	for !sm.Done() && now < 200000 {
		sm.Cycle(now)
		// Service outgoing misses with a fixed 100-cycle latency.
		for {
			req, ok := sm.PopOutgoing()
			if !ok {
				break
			}
			if req.Kind.String() == "read" {
				sm.DeliverFill(req.BlockAddr(), now+100)
			}
		}
		now++
	}
	if !sm.Done() {
		t.Fatalf("SM did not finish within the cycle budget")
	}
	st := sm.Stats()
	if st.Issued != 8*50 {
		t.Errorf("Issued = %d, want %d", st.Issued, 8*50)
	}
	if st.Cycles < st.Issued {
		t.Errorf("%d instructions in %d cycles: a single-issue SM issues at most one per cycle", st.Issued, st.Cycles)
	}
	if st.MemInstructions == 0 {
		t.Errorf("workload should issue memory instructions")
	}
}

func TestSMStallsWhenL1DRejects(t *testing.T) {
	// An MSHR of size 1 with no merging forces stalls under a memory-heavy
	// workload when fills never come back.
	cfg := config.NewL1DConfig(config.L1SRAM)
	cfg.MSHREntries = 1
	cfg.MSHRMergeWidth = 0
	prof, _ := trace.ProfileByName("GEMM") // APKI 136: memory instruction every ~7 instructions
	sm := NewSM(0, 8, 100, trace.NewKernel(prof, 0, 3), core.MustNew(cfg))
	for now := int64(0); now < 2000; now++ {
		sm.Cycle(now)
		// Never deliver fills: warps pile up on the MSHR.
	}
	if sm.Stats().L1DStallCycles == 0 {
		t.Errorf("expected L1D stall cycles when the MSHR is saturated")
	}
	if sm.Done() {
		t.Errorf("SM cannot finish without fills")
	}
	if sm.waiting.Len() == 0 {
		t.Errorf("there should be outstanding fills")
	}
}

func TestSMWakesOnlyOnFill(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 1, 2000, "ATAX")
	var missBlock uint64
	now := int64(0)
	for now < 10000 {
		sm.Cycle(now)
		if req, ok := sm.PopOutgoing(); ok {
			missBlock = req.BlockAddr()
			break
		}
		now++
	}
	if missBlock == 0 && sm.waiting.Len() == 0 {
		t.Fatalf("expected the single warp to miss eventually")
	}
	// With its only warp blocked, the SM cannot issue.
	before := sm.Stats().Issued
	for i := int64(1); i <= 50; i++ {
		sm.Cycle(now + i)
	}
	if sm.Stats().Issued != before {
		t.Errorf("blocked SM should not issue")
	}
	if sm.Stats().MemWaitCycles == 0 {
		t.Errorf("cycles blocked on a fill should count as memory wait")
	}
	woken := sm.DeliverFill(missBlock, now+60)
	if woken != 1 {
		t.Errorf("fill should wake the waiting warp, woke %d", woken)
	}
	sm.Cycle(now + 61)
	if sm.Stats().Issued == before {
		t.Errorf("SM should issue again after the fill")
	}
}

func TestSMNextWakeAt(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 4, 10, "pathf")
	if sm.minWake != math.MaxInt64 {
		t.Errorf("no timed waits yet, minWake = %d", sm.minWake)
	}
	sm.Cycle(0)
	sm.blockFor(&sm.warps[1], 5, 7)
	sm.blockFor(&sm.warps[2], 5, 9)
	if sm.minWake != 12 {
		t.Errorf("minWake = %d, want 12", sm.minWake)
	}
	if got := sm.NextSelfEventAt(6); got != 6 {
		t.Errorf("NextSelfEventAt = %d, want 6 (other warps still ready)", got)
	}
	sm.blockOnData(&sm.warps[0], 0x1000)
	sm.blockOnData(&sm.warps[3], 0x2000)
	if got := sm.NextSelfEventAt(6); got != 12 {
		t.Errorf("NextSelfEventAt = %d, want 12 (earliest timed wake-up)", got)
	}
	// The pick at 12 promotes warp 1 and leaves warp 2's wake-up as the bound.
	sm.greedyWarp = 0
	if w := sm.pickWarp(12); w != &sm.warps[1] {
		t.Fatalf("pickWarp(12) = %v, want warp 1", w)
	}
	if sm.minWake != 14 {
		t.Errorf("minWake = %d after warp 1 woke, want 14", sm.minWake)
	}
	checkSets(t, sm, 12)
}

func TestSMNextSelfEventAt(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 2, 10, "pathf")
	// Fresh SM: every warp is ready, so the SM can progress right now.
	if got := sm.NextSelfEventAt(0); got != 0 {
		t.Errorf("NextSelfEventAt(0) = %d, want 0 (ready warps)", got)
	}
	// Warp 0 in a timed wait, warp 1 still ready: progress is still "now".
	sm.issue(&sm.warps[0], 0)
	sm.blockFor(&sm.warps[0], 0, 20)
	if got := sm.NextSelfEventAt(3); got != 3 {
		t.Errorf("NextSelfEventAt = %d, want 3 (warp 1 ready)", got)
	}
	// Both warps waiting: the earliest timed wake-up bounds the sleep.
	sm.issue(&sm.warps[1], 0)
	sm.blockFor(&sm.warps[1], 0, 8)
	if got := sm.NextSelfEventAt(3); got != 8 {
		t.Errorf("NextSelfEventAt = %d, want 8 (earliest WakeAt)", got)
	}
	// A stale timed wait (WakeAt already passed) means ready now.
	if got := sm.NextSelfEventAt(9); got != 9 {
		t.Errorf("NextSelfEventAt = %d, want 9 (stale wait is ready)", got)
	}
	// Both warps blocked on data: nothing to do until a fill arrives.
	sm.promoteDue(20)
	sm.issue(&sm.warps[0], 20)
	sm.blockOnData(&sm.warps[0], 0x1000)
	sm.issue(&sm.warps[1], 21)
	sm.blockOnData(&sm.warps[1], 0x2000)
	if got := sm.NextSelfEventAt(22); got != -1 {
		t.Errorf("NextSelfEventAt = %d, want -1 (data-blocked SM sleeps)", got)
	}
	checkSets(t, sm, 22)
}

func TestSMGreedyThenOldestPrefersSameWarp(t *testing.T) {
	sm := newTestSM(config.L1SRAM, 4, 1000, "pathf") // pathf is compute-bound: mostly ALU
	sm.Cycle(0)
	first := sm.greedyWarp
	sm.Cycle(1)
	if sm.greedyWarp != first {
		t.Errorf("greedy scheduler should stick with warp %d while it is ready", first)
	}
}

func TestNewSMClampsWarpCount(t *testing.T) {
	prof, _ := trace.ProfileByName("pathf")
	sm := NewSM(0, 0, 10, trace.NewKernel(prof, 0, 1), core.MustNew(config.NewL1DConfig(config.L1SRAM)))
	if len(sm.warps) != 1 {
		t.Errorf("warp count should clamp to 1, got %d", len(sm.warps))
	}
}

// TestHeldStallSleepsAndReplays covers the SM side of a held stall: once the
// L1D rejects the greedy warp's access with a full MSHR file, the SM has no
// self-event left (only a fill can end the stall), CatchUp charges the
// skipped cycles as stall cycles, and a held access that the L1D would
// accept — here because its MSHR was freed behind the SM's back — makes the
// replay panic rather than silently diverge. A delivered fill ends the hold.
func TestHeldStallSleepsAndReplays(t *testing.T) {
	cfg := config.NewL1DConfig(config.L1SRAM)
	cfg.MSHREntries, cfg.MSHRMergeWidth = 1, 0
	prof, _ := trace.ProfileByName("GEMM")
	sm := NewSM(0, 8, 100, trace.NewKernel(prof, 0, 3), core.MustNew(cfg))
	now := int64(0)
	for ; now < 2000 && !sm.Holding(); now++ {
		sm.Cycle(now)
	}
	if !sm.Holding() {
		t.Fatalf("the SM never held a stall")
	}
	if got := sm.NextSelfEventAt(now); got != -1 {
		t.Fatalf("NextSelfEventAt = %d during an MSHR hold, want -1", got)
	}
	before := sm.Stats()
	sm.CatchUp(now + 10)
	if st := sm.Stats(); st.Cycles != before.Cycles+10 || st.L1DStallCycles != before.L1DStallCycles+10 ||
		st.MemWaitCycles != before.MemWaitCycles+10 || st.Issued != before.Issued {
		t.Fatalf("catching up 10 held cycles: stats %+v, before %+v", st, before)
	}
	now += 10

	miss, ok := sm.PopOutgoing()
	if !ok {
		t.Fatalf("the held miss should be queued toward the L2")
	}
	sm.L1D().Fill(miss.BlockAddr(), now) // frees the MSHR without telling the SM
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("replaying a held access the L1D accepts must panic")
			}
		}()
		sm.CatchUp(now + 1)
	}()

	sm.DeliverFill(miss.BlockAddr(), now+1)
	if sm.Holding() {
		t.Errorf("a delivered fill must end the hold")
	}
}

// TestCatchUpMatchesCycling checks CatchUp against the cycles it stands for:
// of two identical SMs sleeping through the same cycles, one is cycled
// through every one of them and the other catches up in one call, and the
// two must end up identical — SM counters, clock, warp state and
// the whole L1D with its components. A held SM replays its held stall; an
// idle one, every warp blocked on a fill that never comes, charges no ready
// warp. Catching an SM up to a cycle it has already been charged past panics.
func TestCatchUpMatchesCycling(t *testing.T) {
	prof, _ := trace.ProfileByName("ATAX")
	for _, tc := range []struct {
		name        string
		warps, mshr int
		held        bool
	}{
		{"held", 8, 2, true},
		{"idle", 1, 0, false},
	} {
		for _, kind := range []config.L1DKind{config.L1SRAM, config.FASRAM, config.BaseFUSE, config.FAFUSE, config.DyFUSE} {
			cfg := config.NewL1DConfig(kind)
			if tc.mshr > 0 {
				cfg.MSHREntries = tc.mshr
			}
			newSM := func() *SM { return NewSM(0, tc.warps, 100, trace.NewKernel(prof, 0, 3), core.MustNew(cfg)) }
			cycled, caught := newSM(), newSM()
			asleep := func(now int64) bool {
				if tc.held {
					return cycled.Holding()
				}
				return cycled.NextSelfEventAt(now) < 0
			}
			now := int64(0)
			for ; now < 2000 && !asleep(now); now++ {
				cycled.Cycle(now)
				caught.Cycle(now)
			}
			if !asleep(now) || cycled.Holding() != tc.held {
				t.Fatalf("%s %v: the SM never slept (holding %v)", tc.name, kind, cycled.Holding())
			}
			end := now + 50
			if next := cycled.NextSelfEventAt(now); next >= 0 && next < end {
				end = next
			}
			if end < now+2 {
				t.Fatalf("%s %v: the sleep at %d leaves no cycles to catch up (next self-event %d)", tc.name, kind, now, end)
			}
			for c := now; c < end; c++ {
				cycled.Cycle(c)
			}
			caught.CatchUp(end)
			if !reflect.DeepEqual(cycled, caught) {
				t.Errorf("%s %v: catching up cycles [%d, %d) differs from cycling them:\ncycled: %+v %+v\ncaught: %+v %+v",
					tc.name, kind, now, end, cycled.Stats(), *cycled.L1D().Stats(), caught.Stats(), *caught.L1D().Stats())
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %v: catching up to cycle %d after being charged to %d must panic", tc.name, kind, end-1, end)
					}
				}()
				caught.CatchUp(end - 1)
			}()
		}
	}
}

// BenchmarkCatchUp measures catching up 1,000 skipped cycles of a held
// stall: a Dy-FUSE SM whose greedy warp's access the full MSHR file rejects.
func BenchmarkCatchUp(b *testing.B) {
	cfg := config.NewL1DConfig(config.DyFUSE)
	cfg.MSHREntries = 1
	prof, _ := trace.ProfileByName("ATAX")
	sm := NewSM(0, 8, 1<<20, trace.NewKernel(prof, 0, 3), core.MustNew(cfg))
	now := int64(0)
	for ; now < 2000 && !sm.Holding(); now++ {
		sm.Cycle(now)
	}
	if !sm.Holding() || sm.NextSelfEventAt(now) != -1 {
		b.Fatal("the SM should sleep through a held full-MSHR stall")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1000
		sm.CatchUp(now)
	}
}

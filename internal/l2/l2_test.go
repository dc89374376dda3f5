package l2

import (
	"strings"
	"testing"

	"fuse/internal/dram"
	"fuse/internal/mem"
)

func newL2() *L2 {
	return New(Config{}, dram.New(dram.Config{}))
}

func read(addr uint64) mem.Request {
	return mem.Request{Addr: addr, Kind: mem.Read}
}
func write(addr uint64) mem.Request {
	return mem.Request{Addr: addr, Kind: mem.Write}
}

// drainFills drives the event loop until the memory side is idle or the
// horizon is reached, returning every completed fill. Advance's results (and
// the waiter slices they carry) are only valid until the next Advance call,
// so the fills are deep-copied before accumulating.
func drainFills(t *testing.T, l *L2, horizon int64) []Fill {
	t.Helper()
	var fills []Fill
	for {
		next := l.NextEventAt()
		if next < 0 {
			return fills
		}
		if next > horizon {
			t.Fatalf("memory side did not settle before cycle %d (next event at %d)", horizon, next)
		}
		for _, f := range l.Advance(next) {
			f.Waiters = append([]Waiter(nil), f.Waiters...)
			fills = append(fills, f)
		}
	}
}

// fillFor returns the unique fill of the given block.
func fillFor(t *testing.T, fills []Fill, block uint64) Fill {
	t.Helper()
	for _, f := range fills {
		if f.Block == block {
			return f
		}
	}
	t.Fatalf("no fill completed for block %#x (got %d fills)", block, len(fills))
	return Fill{}
}

func TestDefaultsMatchTableI(t *testing.T) {
	l := newL2()
	cfg := l.Config()
	if cfg.Banks != 12 || cfg.TotalKB != 786 || cfg.Ways != 8 {
		t.Errorf("L2 defaults should match Table I: %+v", cfg)
	}
	if cfg.PendingLimit != 64 || cfg.MergeWidth != 16 {
		t.Errorf("MSHR defaults missing: %+v", cfg)
	}
	if l.Banks() != 12 {
		t.Errorf("Banks() = %d", l.Banks())
	}
	if !strings.Contains(l.String(), "L2") || !strings.Contains(l.String(), "MSHR") {
		t.Errorf("String should describe the cache: %s", l.String())
	}
}

// TestFillNotVisibleBeforeDRAMCompletes is the regression test for the
// early-hit timing leak: the old L2 inserted a missing block into the tag
// store at Access time, so a second read of a cold block "hit" at the bank
// latency while the DRAM fill was still in flight (and the in-flight merge
// path was dead code). Now both back-to-back reads must observe the DRAM
// completion time, and the merge counter must actually increment.
func TestFillNotVisibleBeforeDRAMCompletes(t *testing.T) {
	l := newL2()
	block := uint64(0x10000)

	r1 := l.Access(read(block), 0)
	if r1.Outcome != OutcomeMiss {
		t.Fatalf("cold read should be a primary miss, got %v", r1.Outcome)
	}
	// Second read of the same cold block, well before any DRAM fill can
	// complete: it must merge with the in-flight fill, not hit.
	r2 := l.Access(read(block), 5)
	if r2.Outcome != OutcomeMerged {
		t.Fatalf("second read of an in-flight block must merge, got %v", r2.Outcome)
	}
	if l.MergedInFlight() != 1 {
		t.Fatalf("mergedFly must increment on an in-flight merge, got %d", l.MergedInFlight())
	}
	if l.DRAM().Accesses() != 1 {
		t.Fatalf("merged miss must not access DRAM again: %d accesses", l.DRAM().Accesses())
	}

	fills := drainFills(t, l, 10_000)
	f := fillFor(t, fills, block)
	if len(f.Waiters) != 2 {
		t.Fatalf("fill should deliver both waiters, got %d", len(f.Waiters))
	}
	// The fill cannot beat the DRAM's intrinsic latency: L2 lookup, then at
	// least tRCD+tCL+burst on a cold bank.
	cfg := l.DRAM().Config()
	dramMin := int64(l.Config().LatencyCycles) + int64(cfg.TRCD+cfg.TCL+cfg.BurstCycles)
	if f.Done < dramMin {
		t.Errorf("fill completed at %d, before the minimum DRAM latency %d", f.Done, dramMin)
	}
	// Both requestors observe Done >= the DRAM completion of the fill.
	for i, w := range f.Waiters {
		if f.Done < w.Arrive {
			t.Errorf("waiter %d completes before it arrived: done=%d arrive=%d", i, f.Done, w.Arrive)
		}
	}
	// Only after the fill does the block hit.
	if r := l.Access(read(block), f.Done+1); r.Outcome != OutcomeHit {
		t.Errorf("block should hit after its fill completed, got %v", r.Outcome)
	}
}

func TestMissThenHit(t *testing.T) {
	l := newL2()
	r1 := l.Access(read(0x10000), 0)
	if r1.Outcome != OutcomeMiss {
		t.Fatalf("cold access should miss")
	}
	fills := drainFills(t, l, 10_000)
	f := fillFor(t, fills, 0x10000)
	if f.Done <= int64(l.Config().LatencyCycles) {
		t.Errorf("miss should include DRAM latency, done at %d", f.Done)
	}
	r2 := l.Access(read(0x10000), f.Done+1)
	if r2.Outcome != OutcomeHit {
		t.Fatalf("second access should hit")
	}
	hitLat := r2.Done - (f.Done + 1)
	if hitLat >= f.Done {
		t.Errorf("L2 hit (%d) should be much faster than miss (%d)", hitLat, f.Done)
	}
	if l.Hits() != 1 || l.Misses() != 1 || l.Accesses() != 2 {
		t.Errorf("counters wrong: hits=%d misses=%d accesses=%d", l.Hits(), l.Misses(), l.Accesses())
	}
	if l.MissRate() != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", l.MissRate())
	}
	if len(fills) != 1 || l.PendingFills() != 0 {
		t.Errorf("fill accounting wrong: done=%d pending=%d", len(fills), l.PendingFills())
	}
}

func TestWriteMergesIntoInFlightFill(t *testing.T) {
	l := newL2()
	block := uint64(0x20000)
	l.Access(read(block), 0)
	res := l.Access(write(block), 3)
	if res.Outcome != OutcomeMerged {
		t.Fatalf("write to an in-flight block should merge, got %v", res.Outcome)
	}
	fills := drainFills(t, l, 10_000)
	fillFor(t, fills, block)
	// The merged write dirtied the line: displacing it must write back.
	wbBefore := l.DRAM().Writes()
	displaceBlock(t, l, block)
	if l.DRAM().Writes() == wbBefore {
		t.Errorf("a write merged into a fill must install the line dirty")
	}
}

// TestWriteHitMarksLineDirty pins the write-back contract: a write that hits
// in the L2 must mark the line dirty so its eventual eviction writes it back
// to DRAM.
func TestWriteHitMarksLineDirty(t *testing.T) {
	l := newL2()
	block := uint64(0x30000)
	// Install the block clean via a read fill.
	l.Access(read(block), 0)
	fills := drainFills(t, l, 10_000)
	f := fillFor(t, fills, block)
	// Write-hit it.
	if r := l.Access(write(block), f.Done+1); r.Outcome != OutcomeHit {
		t.Fatalf("write after fill should hit, got %v", r.Outcome)
	}
	wbBefore := l.DRAM().Writes()
	displaceBlock(t, l, block)
	if l.DRAM().Writes() == wbBefore {
		t.Errorf("evicting a write-hit line must write back to DRAM")
	}
}

// displaceBlock evicts the given block from its set by filling the set with
// conflicting blocks (same bank, same set), driving fills as it goes.
func displaceBlock(t *testing.T, l *L2, block uint64) {
	t.Helper()
	b := l.banks[l.BankFor(block)]
	sets := int64(b.store.Sets())
	stride := uint64(sets) * uint64(l.cfg.Banks) * mem.BlockSize
	now := l.NextEventAt()
	if now < 0 {
		now = 1
	}
	for i := 1; i <= l.cfg.Ways+1; i++ {
		l.Access(read(block+uint64(i)*stride), now)
		fills := drainFills(t, l, now+1_000_000)
		for _, f := range fills {
			if f.Done > now {
				now = f.Done
			}
		}
		now++
		if !b.store.Probe(block) {
			return
		}
	}
	t.Fatalf("block %#x was not displaced", block)
}

func TestWritebackMissAllocatesWithoutDRAMRead(t *testing.T) {
	l := newL2()
	before := l.DRAM().Accesses()
	res := l.Access(write(0x30000), 0)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("cold write-back should miss")
	}
	if l.DRAM().Accesses() != before {
		t.Errorf("full-block write-back should not read DRAM")
	}
	// The block is now present.
	if res := l.Access(read(0x30000), 100); res.Outcome != OutcomeHit {
		t.Errorf("written-back block should hit on the next read")
	}
}

func TestMSHRBackPressure(t *testing.T) {
	cfg := Config{Banks: 1, TotalKB: 64, Ways: 8, PendingLimit: 2, MergeWidth: 2}
	l := New(cfg, dram.New(dram.Config{Channels: 1}))
	stride := uint64(l.cfg.Banks) * mem.BlockSize
	// Two primary misses fill the MSHR file.
	for i := 0; i < 2; i++ {
		if r := l.Access(read(uint64(i)*stride*1000), 0); r.Outcome != OutcomeMiss {
			t.Fatalf("miss %d rejected: %v", i, r.Outcome)
		}
	}
	// A third distinct block must be back-pressured.
	r := l.Access(read(7777*stride), 1)
	if r.Outcome != OutcomeBlocked {
		t.Fatalf("third primary miss should block on a 2-entry MSHR, got %v", r.Outcome)
	}
	if r.RetryAt <= 1 {
		t.Errorf("blocked result should carry a future retry time, got %d", r.RetryAt)
	}
	if l.MSHRStalls() == 0 {
		t.Errorf("MSHR stalls should be counted")
	}
	// The merge list is bounded too: entry 0 has 1 waiter, merge width 2
	// allows one more, then blocks.
	if r := l.Access(read(0), 2); r.Outcome != OutcomeMerged {
		t.Fatalf("first merge should succeed, got %v", r.Outcome)
	}
	if r := l.Access(read(0), 3); r.Outcome != OutcomeBlocked {
		t.Fatalf("merge beyond the width should block, got %v", r.Outcome)
	}
	// After the fills complete, the blocked block goes through.
	fills := drainFills(t, l, 100_000)
	if len(fills) != 2 {
		t.Fatalf("expected 2 fills, got %d", len(fills))
	}
	if r := l.Access(read(7777*stride), l.banks[0].portAt+100); r.Outcome != OutcomeMiss {
		t.Errorf("retry after drain should be accepted, got %v", r.Outcome)
	}
}

func TestBankMapping(t *testing.T) {
	l := newL2()
	if l.BankFor(0) == l.BankFor(mem.BlockSize) {
		t.Errorf("consecutive blocks should map to different banks")
	}
	if l.BankFor(0x8000) != l.BankFor(0x8000) {
		t.Errorf("bank mapping must be deterministic")
	}
}

func TestBankPortSerialises(t *testing.T) {
	l := newL2()
	addr := uint64(0x40000)
	// Install the block, then issue two same-cycle hits: the second must be
	// delayed by the port occupancy.
	l.Access(read(addr), 0)
	fills := drainFills(t, l, 10_000)
	f := fillFor(t, fills, addr)
	at := f.Done + 100
	first := l.Access(read(addr), at)
	second := l.Access(read(addr), at)
	if first.Outcome != OutcomeHit || second.Outcome != OutcomeHit {
		t.Fatalf("both accesses should hit")
	}
	if second.Done <= first.Done {
		t.Errorf("port contention should delay the second request: %d vs %d", second.Done, first.Done)
	}
}

func TestDirtyEvictionWritesBackToDRAM(t *testing.T) {
	cfg := Config{Banks: 1, TotalKB: 1, Ways: 2, LatencyCycles: 10}
	l := New(cfg, dram.New(dram.Config{Channels: 1}))
	// Dirty a block, then displace it by filling the (tiny) bank.
	l.Access(write(0), 0)
	now := int64(100)
	for i := 1; i < 64; i++ {
		l.Access(write(uint64(i)*mem.BlockSize), now)
		now += 50
	}
	drainFills(t, l, 1_000_000)
	if l.DRAM().Writes() == 0 {
		t.Errorf("displacing dirty blocks should write back to DRAM")
	}
}

func TestConfigClamping(t *testing.T) {
	l := New(Config{Banks: -1, TotalKB: 0, Ways: 0, LatencyCycles: 0, PendingLimit: 0}, dram.New(dram.Config{}))
	cfg := l.Config()
	if cfg.Banks <= 0 || cfg.TotalKB <= 0 || cfg.Ways <= 0 || cfg.LatencyCycles <= 0 || cfg.PendingLimit <= 0 {
		t.Errorf("invalid configuration should clamp: %+v", cfg)
	}
	if res := l.Access(read(0), 0); res.Outcome != OutcomeMiss {
		t.Errorf("clamped L2 should still serve requests")
	}
}

func TestNilDRAMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for nil DRAM")
		}
	}()
	New(Config{}, nil)
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{OutcomeHit, OutcomeMiss, OutcomeMerged, OutcomeBlocked} {
		if strings.HasPrefix(o.String(), "Outcome(") {
			t.Errorf("missing name for outcome %d", o)
		}
	}
}

// TestLateMergeCannotBeatL2Latency pins the secondary-miss floor: a read
// that merges into a fill just before (or after) the data returns still pays
// its own tag/ECC pipeline latency — a merged miss can never complete faster
// than an L2 hit.
func TestLateMergeCannotBeatL2Latency(t *testing.T) {
	l := newL2()
	block := uint64(0x50000)
	l.Access(read(block), 0)
	// Merge long after the DRAM completion time but before the fill has
	// been delivered (the L2 is externally driven; nothing advanced yet).
	late := int64(10_000)
	if r := l.Access(read(block), late); r.Outcome != OutcomeMerged {
		t.Fatalf("undelivered fill should still merge, got %v", r.Outcome)
	}
	fills := drainFills(t, l, 20_000)
	f := fillFor(t, fills, block)
	if len(f.Waiters) != 2 {
		t.Fatalf("expected 2 waiters, got %d", len(f.Waiters))
	}
	w := f.Waiters[1]
	floor := w.Arrive + int64(l.Config().LatencyCycles)
	if got := w.DoneAt(f.Done); got < floor {
		t.Errorf("late merge completes at %d, before its own pipeline latency %d", got, floor)
	}
	if w.DoneAt(f.Done) <= f.Done {
		t.Errorf("a waiter arriving after the fill must complete after Done=%d, got %d", f.Done, w.DoneAt(f.Done))
	}
}

// BenchmarkL2Advance measures the L2 miss path end to end: each iteration
// presents 256 read misses to the paper's 12-bank L2 — more than its
// 6-channel controller queues hold, so fills wait for channel room —
// and advances the memory side until every fill has been delivered.
func BenchmarkL2Advance(b *testing.B) {
	l := newL2()
	next := uint64(0)
	now := int64(0)
	for i := 0; i < b.N; i++ {
		for n := 0; n < 256; n++ {
			l.Access(read(next*mem.BlockSize), now)
			next++
		}
		for {
			t := l.NextEventAt()
			if t < 0 {
				break
			}
			now = max(now, t)
			l.Advance(now)
		}
	}
}

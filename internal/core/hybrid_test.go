package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"fuse/internal/cbf"
	"fuse/internal/config"
	"fuse/internal/mem"
)

func newHybridKind(kind config.L1DKind) *HybridL1D {
	return MustNew(config.NewL1DConfig(kind)).(*HybridL1D)
}

func TestHybridMissFillHit(t *testing.T) {
	h := newHybridKind(config.BaseFUSE)
	if h.Kind() != config.BaseFUSE {
		t.Fatalf("Kind = %v", h.Kind())
	}
	res := h.Access(readReq(1, 0x40, 0), 0)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("cold access should miss, got %v", res.Outcome)
	}
	if n := fillAll(h, 50); n != 1 {
		t.Fatalf("expected one fill, got %d", n)
	}
	res = h.Access(readReq(1, 0x40, 0), 60)
	if res.Outcome != OutcomeHit {
		t.Errorf("post-fill access should hit, got %v", res.Outcome)
	}
	// The fill is one SRAM write and the hit one SRAM read; the STT-MRAM
	// bank stays untouched.
	if s := h.Stats(); s.SRAMWrites != 1 || s.SRAMReads != 1 || s.STTWrites != 0 || s.STTReads != 0 {
		t.Errorf("bank traffic = SRAM %d/%d STT %d/%d reads/writes, want SRAM 1/1 and no STT-MRAM traffic",
			s.SRAMReads, s.SRAMWrites, s.STTReads, s.STTWrites)
	}
}

func TestHybridBlockingMigrationStallsCache(t *testing.T) {
	// The plain Hybrid configuration has no swap buffer or tag queue, so an
	// SRAM eviction that migrates into the STT-MRAM bank blocks the cache.
	cfg := config.NewL1DConfig(config.Hybrid)
	// Shrink the SRAM bank so evictions happen immediately: 2 sets x 2 ways.
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)

	now := int64(0)
	// Fill more blocks (same SRAM set) than SRAM can hold; every fill goes
	// to SRAM first and the evictions migrate to STT-MRAM, blocking.
	for i := 0; i < 6; i++ {
		block := 4 * i // all map to SRAM set 0
		res := h.Access(readReq(block, 0x40, 0), now)
		if res.Outcome == OutcomeStall {
			now += 10
			continue
		}
		fillAll(h, now+1)
		now += 10
	}
	if h.Stats().MigrationsToSTT == 0 {
		t.Fatalf("expected SRAM evictions to migrate to STT-MRAM")
	}
	if h.Stats().STTWriteStallCycles == 0 {
		t.Errorf("blocking migrations should accumulate STT write stall cycles")
	}
	// An access issued while the cache is blocked must stall.
	h.blockedUntil = now + 100
	if res := h.Access(readReq(999, 0x40, 0), now); res.Outcome != OutcomeStall {
		t.Errorf("access to a blocked cache should stall, got %v", res.Outcome)
	}
}

func TestBaseFUSENonBlockingMigration(t *testing.T) {
	// Base-FUSE absorbs the same migrations in the swap buffer + tag queue,
	// so the cache does not block.
	cfg := config.NewL1DConfig(config.BaseFUSE)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)

	now := int64(0)
	stalls := 0
	sawSwap, sawQueued := false, false
	for i := 0; i < 5; i++ {
		block := 4 * i
		res := h.Access(readReq(block, 0x40, 0), now)
		if res.Outcome == OutcomeStall {
			stalls++
		} else {
			fillAll(h, now+1)
		}
		sawSwap = sawSwap || h.swap.Occupancy() > 0
		sawQueued = sawQueued || h.queue.Len() > 0
		h.Tick(now + 2)
		now += 10
	}
	if stalls != 0 {
		t.Errorf("Base-FUSE should not stall on migrations that fit the swap buffer, got %d stalls", stalls)
	}
	if h.Stats().MigrationsToSTT == 0 {
		t.Errorf("expected migrations to STT-MRAM")
	}
	if !sawSwap {
		t.Errorf("migrations should pass through the swap buffer")
	}
	if !sawQueued {
		t.Errorf("migrations should be queued as F commands")
	}
}

func TestSwapBufferHitWhileMigrationPending(t *testing.T) {
	cfg := config.NewL1DConfig(config.BaseFUSE)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)

	now := int64(0)
	// Fill three blocks in the same SRAM set; the first eviction parks in
	// the swap buffer (no Tick, so the migration has not retired yet).
	for i := 0; i < 3; i++ {
		h.Access(readReq(4*i, 0x40, 0), now)
		fillAll(h, now+1)
		now += 5
	}
	if h.swap.Occupancy() == 0 {
		t.Fatalf("expected a block parked in the swap buffer")
	}
	// The evicted block (0) should still hit via the swap buffer snoop.
	res := h.Access(readReq(0, 0x40, 0), now)
	if res.Outcome != OutcomeHit {
		t.Errorf("swap-buffer resident block should hit, got %v", res.Outcome)
	}
	if h.Stats().SwapHits == 0 {
		t.Errorf("swap hits should be counted")
	}
}

func TestQueuedFillVisibleWhenSwapBufferFull(t *testing.T) {
	// Regression for the queued-fill visibility bug: fillSTT parks fill data
	// in the swap buffer, but when the buffer is full the block exists only
	// as a tag-queue entry. The lookup path must snoop the queue, or a read
	// to the queued block misses again and allocates a duplicate MSHR entry
	// plus a second off-chip fetch for a block the cache already owns.
	h := newHybridKind(config.DyFUSE) // untrained predictor -> fills go to STT-MRAM
	now := int64(0)
	swapCap := h.swap.Capacity()
	// Queue swapCap+1 fills without ever Ticking: the first swapCap park
	// their data in the swap buffer, the last one fits only in the queue.
	blocks := swapCap + 1
	for i := 0; i < blocks; i++ {
		res := h.Access(readReq(100+i, 0x40, 0), now)
		if res.Outcome != OutcomeMiss {
			t.Fatalf("block %d: expected miss, got %v", i, res.Outcome)
		}
		fillAll(h, now+1)
		now += 2
	}
	if !h.swap.Full() {
		t.Fatalf("swap buffer should be full (%d/%d)", h.swap.Occupancy(), swapCap)
	}
	last := 100 + blocks - 1
	lastBlock := mem.BlockAlign(uint64(last) * mem.BlockSize)
	if h.swap.Lookup(lastBlock) {
		t.Fatalf("last fill should not fit the swap buffer")
	}
	if !h.queue.Contains(lastBlock) {
		t.Fatalf("last fill should be pending in the tag queue")
	}

	// The follow-up read must hit at SRAM-side latency with no new outgoing
	// request and no new MSHR allocation.
	before := *h.Stats()
	res := h.Access(readReq(last, 0x40, 0), now)
	if res.Outcome != OutcomeHit {
		t.Fatalf("read of a queued-but-unwritten fill should hit, got %v", res.Outcome)
	}
	if s := h.Stats(); s.SRAMReads != before.SRAMReads+1 || s.STTReads != before.STTReads {
		t.Errorf("queued-fill hit should be served on the SRAM side: SRAM reads %d -> %d, STT-MRAM reads %d -> %d",
			before.SRAMReads, s.SRAMReads, before.STTReads, s.STTReads)
	}
	if got := h.Stats().OutgoingRequests; got != before.OutgoingRequests {
		t.Errorf("queued-fill hit must not fetch again: outgoing %d -> %d", before.OutgoingRequests, got)
	}
	if h.Stats().QueueHits == 0 {
		t.Errorf("tag-queue hits should be counted")
	}
	if _, ok := h.PopOutgoing(); ok {
		t.Errorf("no outgoing request should have been generated")
	}
}

func TestQueuedFillWriteMigratesToSRAM(t *testing.T) {
	// A write to a queued-but-unwritten fill must pull the block into SRAM
	// (dropping the queued operation) instead of missing or chasing the
	// fill into the STT-MRAM bank.
	h := newHybridKind(config.DyFUSE)
	now := int64(0)
	blocks := h.swap.Capacity() + 1
	for i := 0; i < blocks; i++ {
		h.Access(readReq(100+i, 0x40, 0), now)
		fillAll(h, now+1)
		now += 2
	}
	last := 100 + blocks - 1
	lastBlock := mem.BlockAlign(uint64(last) * mem.BlockSize)
	if !h.queue.Contains(lastBlock) || h.swap.Lookup(lastBlock) {
		t.Fatalf("setup: block must be queue-only")
	}
	res := h.Access(writeReq(last, 0x44, 0), now)
	if res.Outcome != OutcomeHit {
		t.Fatalf("write to a queued fill should hit in SRAM, got %+v", res)
	}
	if h.queue.Contains(lastBlock) {
		t.Errorf("the queued operation should have been dropped")
	}
	if !h.sram.Probe(lastBlock) {
		t.Errorf("block should now reside in SRAM")
	}
}

func TestBlockedCyclesChargedExactlyOnce(t *testing.T) {
	// Invariant: N warps retrying over a k-cycle blocking window charge
	// exactly k stall cycles, not N*k (the pre-fix rejection path bumped the
	// counter once per rejected request).
	h := newHybridKind(config.Hybrid)
	now := int64(100)
	const k = 10
	h.blockedUntil = now + k

	for cycle := int64(0); cycle < k; cycle++ {
		for warp := 0; warp < 4; warp++ {
			res := h.Access(readReq(1+warp, 0x40, warp), now+cycle)
			if res.Outcome != OutcomeStall {
				t.Fatalf("cycle %d warp %d: expected stall, got %v", cycle, warp, res.Outcome)
			}
		}
	}
	if got := h.Stats().STTWriteStallCycles; got != k {
		t.Errorf("k-cycle block with 4 retrying warps charged %d stall cycles, want %d", got, k)
	}
	// Once the window expires, a fresh blocking window is charged again.
	now += k
	h.blockedUntil = now + 5
	if res := h.Access(readReq(9, 0x40, 0), now); res.Outcome != OutcomeStall {
		t.Fatalf("expected stall in the second window")
	}
	if got := h.Stats().STTWriteStallCycles; got != k+5 {
		t.Errorf("second window should charge its own cycles once: got %d, want %d", got, k+5)
	}
}

func TestHybridWriteHitChargesWindowOnce(t *testing.T) {
	// End-to-end flavour of the single-counting invariant: a blocking STT
	// write hit charges its window up front; the warps that retry while it
	// is in flight add nothing.
	cfg := config.NewL1DConfig(config.Hybrid)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)
	now := int64(0)
	// Land block 0 in the STT-MRAM bank via a blocking migration: fill three
	// blocks that share SRAM set 0 so the first one is evicted and migrates.
	for i := 0; i < 3; i++ {
		if res := h.Access(readReq(4*i, 0x40, 0), now); res.Outcome == OutcomeMiss {
			fillAll(h, now+1)
		}
		now += 20 // past any blocking window
	}
	if !h.stt.Probe(0) {
		t.Fatalf("setup: block 0 should have migrated to the STT-MRAM bank")
	}
	now += 20
	before := h.Stats().STTWriteStallCycles
	sttWrites := h.Stats().STTWrites
	res := h.Access(writeReq(0, 0x44, 0), now)
	if res.Outcome != OutcomeHit || h.Stats().STTWrites != sttWrites+1 || !h.stt.Probe(0) || h.sram.Probe(0) {
		t.Fatalf("expected a blocking STT write hit in place, got %+v (STT-MRAM writes %d -> %d)", res, sttWrites, h.Stats().STTWrites)
	}
	window := h.blockedUntil - now - 1 // the writing warp's own cycle is not a stall
	charged := h.Stats().STTWriteStallCycles - before
	if charged != uint64(window) {
		t.Fatalf("write hit should pre-charge its window: charged %d, want %d", charged, window)
	}
	// Retries inside the window change nothing.
	for cycle := now + 1; cycle < h.blockedUntil; cycle++ {
		for warp := 0; warp < 3; warp++ {
			if res := h.Access(readReq(50+warp, 0x40, warp), cycle); res.Outcome != OutcomeStall {
				t.Fatalf("expected stall during the write window, got %v", res.Outcome)
			}
		}
	}
	if got := h.Stats().STTWriteStallCycles - before; got != uint64(window) {
		t.Errorf("retries multi-counted the window: charged %d, want %d", got, window)
	}
}

func TestSTTWriteHitLatencyIncludesBusyWindow(t *testing.T) {
	// Regression for the non-blocking write leg reading the migrating block
	// out of the STT-MRAM array without honouring the bank's busy window:
	// the reported latency must serialise behind the in-flight write and
	// include the STT read itself.
	h := newHybridKind(config.DyFUSE)
	now := int64(0)
	// Land a block in the STT-MRAM array.
	h.Access(readReq(7, 0x40, 0), now)
	fillAll(h, now+1)
	for i := 0; i < 50; i++ {
		h.Tick(now + int64(i) + 2)
	}
	if !h.stt.Probe(mem.BlockAlign(7 * mem.BlockSize)) {
		t.Fatalf("setup: block should reside in the STT-MRAM bank")
	}
	// Occupy the STT-MRAM bank with a write, then write-hit the block one
	// cycle into the window.
	start := int64(200)
	busyUntil := h.sttBank.Access(start, true)
	res := h.Access(writeReq(7, 0x44, 0), start+1)
	if block := mem.BlockAlign(7 * mem.BlockSize); res.Outcome != OutcomeHit || !h.sram.Probe(block) || h.stt.Probe(block) {
		t.Fatalf("expected a write hit that migrates the block to SRAM, got %+v", res)
	}
	sttRead := h.cfg.STTTech.ReadLatency
	sramWrite := h.cfg.SRAMTech.WriteLatency
	want := int(busyUntil-(start+1)) + sttRead + sramWrite
	if res.Latency < want {
		t.Errorf("latency %d ignores the bank's busy window, want >= %d", res.Latency, want)
	}
}

func TestTagQueueTickRetiresMigrations(t *testing.T) {
	cfg := config.NewL1DConfig(config.BaseFUSE)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)
	now := int64(0)
	for i := 0; i < 4; i++ {
		h.Access(readReq(4*i, 0x40, 0), now)
		fillAll(h, now+1)
		now += 5
	}
	queued := h.queue.Len()
	if queued == 0 {
		t.Fatalf("expected queued migrations")
	}
	// Tick until the queue drains; each retirement needs the bank free.
	for i := 0; i < 100 && !h.queue.Empty(); i++ {
		h.Tick(now)
		now += 2
	}
	if !h.queue.Empty() {
		t.Errorf("tag queue should drain via Tick")
	}
	if h.Stats().STTWrites == 0 {
		t.Errorf("retired migrations should write the STT-MRAM bank")
	}
	// The migrated block is now an STT-MRAM hit.
	sttReads := h.Stats().STTReads
	res := h.Access(readReq(0, 0x40, 0), now+10)
	if res.Outcome != OutcomeHit || h.Stats().STTReads != sttReads+1 {
		t.Errorf("migrated block should hit in STT-MRAM, got %+v (STT-MRAM reads %d -> %d)", res, sttReads, h.Stats().STTReads)
	}
	if h.Stats().STTHits == 0 {
		t.Errorf("STT hits should be counted")
	}
}

func TestWriteHitOnSTTMigratesBackToSRAM(t *testing.T) {
	h := newHybridKind(config.DyFUSE)
	now := int64(0)
	// Fill a block and force it into the STT-MRAM bank by making the
	// predictor see it as WORM-ish: with an untrained (neutral) predictor
	// and the approximately fully-associative bank, fills go to STT-MRAM.
	res := h.Access(readReq(7, 0x40, 0), now)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("expected miss, got %v", res.Outcome)
	}
	fillAll(h, now+1)
	// Drain the tag queue so the block actually lands in the STT array.
	for i := 0; i < 50; i++ {
		h.Tick(now + int64(i) + 2)
	}
	if !h.stt.Probe(mem.BlockAlign(7 * mem.BlockSize)) {
		t.Fatalf("block should reside in the STT-MRAM bank")
	}
	// Now write to it: the controller must migrate it to SRAM.
	res = h.Access(writeReq(7, 0x44, 0), now+100)
	if res.Outcome != OutcomeHit {
		t.Errorf("write hit on STT-MRAM should be served from SRAM after migration, got %+v", res)
	}
	if h.Stats().MigrationsToSRAM == 0 {
		t.Errorf("migration to SRAM should be counted")
	}
	if h.stt.Probe(mem.BlockAlign(7 * mem.BlockSize)) {
		t.Errorf("block should have been invalidated in the STT-MRAM bank")
	}
	if !h.sram.Probe(mem.BlockAlign(7 * mem.BlockSize)) {
		t.Errorf("block should now reside in SRAM")
	}
}

func TestWriteHitFlushesNonEmptyTagQueue(t *testing.T) {
	// Dy-FUSE routes neutral (untrained) fills into the STT-MRAM bank via
	// the tag queue, which is what this test needs pending entries for.
	h := newHybridKind(config.DyFUSE)
	now := int64(0)
	// Land block A in the STT-MRAM bank.
	h.Access(readReq(11, 0x40, 0), now)
	fillAll(h, now+1)
	for i := 0; i < 20; i++ {
		h.Tick(now + 2 + int64(i))
	}
	// Queue another fill (block B) without draining it.
	h.Access(readReq(12, 0x40, 0), now+50)
	fillAll(h, now+51)
	if h.queue.Empty() {
		t.Fatalf("expected a pending fill in the tag queue")
	}
	// Write to block A: the controller flushes the queue first.
	res := h.Access(writeReq(11, 0x44, 0), now+60)
	if res.Outcome != OutcomeHit {
		t.Fatalf("expected hit, got %v", res.Outcome)
	}
	if h.Stats().TagQueueFlushes == 0 {
		t.Errorf("tag queue flush should be counted")
	}
	if !h.queue.Empty() {
		t.Errorf("queue should be empty after the flush")
	}
}

func TestDyFUSEPlacesWMInSRAMAfterTraining(t *testing.T) {
	h := newHybridKind(config.DyFUSE)
	pc := uint64(0xA00)
	now := int64(0)
	// Train: a small set of blocks written repeatedly from a sampled warp.
	for round := 0; round < 30; round++ {
		for b := 0; b < 4; b++ {
			res := h.Access(writeReq(200+b, pc, 0), now)
			if res.Outcome == OutcomeMiss || res.Outcome == OutcomeBypass {
				fillAll(h, now+1)
			}
			h.Tick(now + 2)
			now += 5
		}
	}
	if h.pred == nil {
		t.Fatalf("Dy-FUSE must have a read-level predictor")
	}
	if got := h.pred.Predict(pc); got != mem.WriteMultiple {
		t.Fatalf("predictor should have learned WM for pc %#x, got %v", pc, got)
	}
	// A new block from the same PC must be steered to SRAM.
	res := h.Access(writeReq(999, pc, 0), now)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("expected a miss for the new block, got %v", res.Outcome)
	}
	fillAll(h, now+1)
	if block := mem.BlockAlign(999 * mem.BlockSize); !h.sram.Probe(block) || h.queue.Contains(block) {
		t.Errorf("WM-predicted block should be filled into SRAM (in SRAM %v, queued for STT-MRAM %v)",
			h.sram.Probe(block), h.queue.Contains(block))
	}
}

func TestDyFUSEBypassesWOROAfterTraining(t *testing.T) {
	h := newHybridKind(config.DyFUSE)
	pc := uint64(0xC00)
	now := int64(0)
	// Train: streaming blocks never reused.
	for i := 0; i < 600; i++ {
		res := h.Access(readReq(5000+i, pc, 0), now)
		if res.Outcome == OutcomeMiss || res.Outcome == OutcomeBypass {
			fillAll(h, now+1)
		}
		h.Tick(now + 2)
		now += 5
	}
	if got := h.pred.Predict(pc); got != mem.WORO {
		t.Fatalf("predictor should have learned WORO, got %v (counter=%d)", got, h.pred.CounterOf(pc))
	}
	res := h.Access(readReq(99999, pc, 0), now)
	if res.Outcome != OutcomeBypass {
		t.Errorf("WORO-predicted block should bypass the L1D, got %+v", res)
	}
	fillAll(h, now+1)
	if block := mem.BlockAlign(99999 * mem.BlockSize); h.sram.Probe(block) || h.stt.Probe(block) || h.swap.Lookup(block) || h.queue.Contains(block) {
		t.Errorf("a bypassed block's fill should allocate nothing")
	}
	if h.Stats().Bypasses == 0 {
		t.Errorf("bypasses should be counted")
	}
}

func TestFAFUSECapturesConflictingBlocks(t *testing.T) {
	// Blocks that conflict in the 2-way set-associative STT bank of
	// Base-FUSE fit in the approximately fully-associative bank of FA-FUSE.
	run := func(kind config.L1DKind) uint64 {
		h := newHybridKind(kind)
		now := int64(0)
		// 16 blocks that all map to the same STT-MRAM set in the 256-set
		// organisation (stride 256), accessed repeatedly.
		for round := 0; round < 6; round++ {
			for i := 0; i < 16; i++ {
				block := 256 * i
				res := h.Access(readReq(block, 0x40, 0), now)
				if res.Outcome == OutcomeMiss || res.Outcome == OutcomeBypass {
					fillAll(h, now+1)
				}
				h.Tick(now + 2)
				h.Tick(now + 4)
				now += 10
			}
		}
		return h.Stats().Misses
	}
	missBase := run(config.BaseFUSE)
	missFA := run(config.FAFUSE)
	if missFA >= missBase {
		t.Errorf("FA-FUSE should take fewer conflict misses than Base-FUSE: FA=%d Base=%d", missFA, missBase)
	}
}

func TestFAFUSETagSearchCyclesCounted(t *testing.T) {
	h := newHybridKind(config.FAFUSE)
	now := int64(0)
	for i := 0; i < 20; i++ {
		res := h.Access(readReq(i, 0x40, 0), now)
		if res.Outcome == OutcomeMiss {
			fillAll(h, now+1)
		}
		h.Tick(now + 2)
		now += 5
	}
	if h.approx == nil {
		t.Fatalf("FA-FUSE must have approximation logic")
	}
	// Every access that reaches the STT-MRAM tag search pays at least the
	// one-cycle CBF membership test.
	s := h.Stats()
	searches := s.Accesses - s.SRAMHits - s.SwapHits - s.QueueHits
	if searches == 0 || s.TagSearchStallCycles < searches {
		t.Errorf("%d tag search cycles for %d searches, want at least one each", s.TagSearchStallCycles, searches)
	}
}

func TestHybridMSHRStallDoesNotCorruptStats(t *testing.T) {
	cfg := config.NewL1DConfig(config.DyFUSE)
	cfg.MSHREntries = 1
	cfg.MSHRMergeWidth = 0
	h := MustNew(cfg).(*HybridL1D)
	if res := h.Access(readReq(1, 0x40, 0), 0); res.Outcome != OutcomeMiss {
		t.Fatalf("expected first miss")
	}
	before := h.Stats().Accesses
	if res := h.Access(readReq(2, 0x40, 0), 1); res.Outcome != OutcomeStall {
		t.Fatalf("expected MSHR stall")
	}
	if h.Stats().Accesses != before {
		t.Errorf("stalled access must not be counted")
	}
	if h.Stats().MSHRStallEvents != 1 {
		t.Errorf("MSHR stall should be counted once")
	}
}

func TestHybridPredictionAccuracyTracked(t *testing.T) {
	cfg := config.NewL1DConfig(config.DyFUSE)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	h := MustNew(cfg).(*HybridL1D)
	now := int64(0)
	// Generate enough traffic that lines get evicted and judged.
	for i := 0; i < 400; i++ {
		var res AccessResult
		if i%5 == 0 {
			res = h.Access(writeReq(i%64, 0x500, 0), now)
		} else {
			res = h.Access(readReq(i%200, 0x600, 0), now)
		}
		if res.Outcome == OutcomeMiss || res.Outcome == OutcomeBypass {
			fillAll(h, now+1)
		}
		h.Tick(now + 2)
		now += 5
	}
	if h.Stats().Accuracy.Total() == 0 {
		t.Errorf("prediction accuracy should be audited on evictions")
	}
}

func TestHybridOutgoingIncludesWritebacks(t *testing.T) {
	cfg := config.NewL1DConfig(config.Hybrid)
	cfg.SRAMKB = 1
	cfg.SRAMSets = 4
	cfg.SRAMWays = 2
	cfg.STTMRAMKB = 1
	cfg.STTSets = 4
	cfg.STTWays = 2
	h := MustNew(cfg).(*HybridL1D)
	now := int64(0)
	// Dirty many blocks in the same sets so dirty data is eventually pushed
	// out of both banks toward the L2.
	for i := 0; i < 40; i++ {
		res := h.Access(writeReq(4*i, 0x40, 0), now)
		if res.Outcome == OutcomeStall {
			now += 20
			res = h.Access(writeReq(4*i, 0x40, 0), now)
		}
		if res.Outcome == OutcomeMiss {
			fillAll(h, now+1)
		}
		now += 20
	}
	if h.Stats().Writebacks == 0 {
		t.Errorf("dirty evictions from the STT-MRAM bank should produce write-backs")
	}
	if h.Stats().OutgoingRequests <= h.Stats().Misses {
		t.Errorf("outgoing requests should include write-backs")
	}
}

func TestHybridFillUnknownBlockIsNoop(t *testing.T) {
	filled, untouched := newHybridKind(config.BaseFUSE), newHybridKind(config.BaseFUSE)
	for _, h := range []*HybridL1D{filled, untouched} {
		mustOutcome(t, h, readReq(1, 0x40, 0), 0, OutcomeMiss)
	}
	filled.Fill(0xdead00, 3)
	if !reflect.DeepEqual(filled, untouched) {
		t.Errorf("a fill without an MSHR entry changed the cache")
	}
}

func TestStallReasonConstants(t *testing.T) {
	// The stall reasons are part of the public vocabulary used by the
	// simulator's accounting; make sure they stay distinct.
	reasons := []StallReason{StallNone, StallSTTWrite, StallTagSearch, StallMSHR, StallStructural}
	seen := map[StallReason]bool{}
	for _, r := range reasons {
		if seen[r] {
			t.Errorf("duplicate stall reason value %d", r)
		}
		seen[r] = true
	}
}

// BenchmarkHybridL1DAccess measures one Dy-FUSE access, including the
// background work it causes: a seeded read/write stream over a working set
// twice the cache's capacity, each miss filled at once, the tag queue
// drained by Tick every cycle.
func BenchmarkHybridL1DAccess(b *testing.B) {
	h := newHybridKind(config.DyFUSE)
	rng := rand.New(rand.NewPCG(1, 2))
	blocks := 2 * (h.cfg.SRAMBlocks() + h.cfg.STTBlocks())
	reqs := make([]mem.Request, 4096)
	for i := range reqs {
		reqs[i] = readReq(rng.IntN(blocks), uint64(0x40*rng.IntN(32)), rng.IntN(48))
		if rng.IntN(4) == 0 {
			reqs[i].Kind = mem.Write
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		h.Tick(now)
		h.Access(reqs[i%len(reqs)], now)
		fillAll(h, now)
	}
}

// TestFlushEvictingWrittenBlockKeepsFiltersExact drives an FA-FUSE write hit
// whose tag-queue flush itself evicts the written block from the STT-MRAM
// bank. The block then leaves the bank once, so the filters must drop it
// once: afterwards they answer exactly like fresh filters holding only the
// blocks the STT-MRAM tag array holds. The filters are one CBF of 64 slots
// with one hash, and the blocks are chosen so that only the written block
// and one other resident block share a counter: a second decrement for the
// written block would empty that counter under a resident block.
func TestFlushEvictingWrittenBlockKeepsFiltersExact(t *testing.T) {
	cfg := config.NewL1DConfig(config.FAFUSE)
	cfg.SRAMKB, cfg.SRAMSets, cfg.SRAMWays = 1, 4, 2
	cfg.STTMRAMKB, cfg.STTSets, cfg.STTWays = 1, 1, 8
	cfg.CBFCount, cfg.CBFSlots, cfg.CBFHashes = 1, 64, 1
	h := MustNew(cfg).(*HybridL1D)
	newFilters := func() *cbf.NVMCBF { return cbf.NewNVMCBF(cfg.CBFCount, cfg.CBFSlots, cfg.CBFHashes) }
	addr := func(block int) uint64 { return uint64(block) * mem.BlockSize }

	// Blocks of SRAM set 0: written, then shared, the block that shares its
	// counter, then blocks that share no counter with any block before them.
	written := 0
	chosen := newFilters()
	chosen.Insert(addr(written))
	shared := 4
	for !chosen.Test(addr(shared)) {
		shared += 4
	}
	chosen.Insert(addr(shared))
	blocks := []int{written, shared}
	for b := 4; len(blocks) < 11; b += 4 {
		if b != shared && !chosen.Test(addr(b)) {
			blocks = append(blocks, b)
			chosen.Insert(addr(b))
		}
	}

	// Each miss past the second evicts the SRAM set's LRU block into the
	// STT-MRAM bank: blocks[0..7] fill its 8 ways in FIFO order, the
	// written block oldest.
	now := int64(0)
	for i, b := range blocks {
		mustOutcome(t, h, readReq(b, 0x40, 0), now, OutcomeMiss)
		fillAll(h, now+1)
		now += 2
		if i == len(blocks)-1 {
			break // leave the last migration queued
		}
		for ; h.NextInternalEventAt(now) >= 0; now++ {
			h.Tick(now)
		}
	}
	for _, b := range blocks[:8] {
		if !h.stt.Probe(addr(b)) {
			t.Fatalf("block %d should be in the STT-MRAM bank", b)
		}
	}
	if h.queue.Empty() {
		t.Fatal("the last migration should still be queued")
	}

	// The write hit flushes the queue; retiring the queued migration evicts
	// the written block, the bank's oldest.
	if res := h.Access(writeReq(written, 0x80, 0), now); res.Outcome != OutcomeHit {
		t.Fatalf("write to the STT-MRAM-resident block: %v, want a hit", res.Outcome)
	}
	if h.Stats().TagQueueFlushes != 1 || h.stt.Probe(addr(written)) {
		t.Fatalf("the write should have flushed the queue (%d flushes) and left the block out of the STT-MRAM bank (held %v)",
			h.Stats().TagQueueFlushes, h.stt.Probe(addr(written)))
	}

	want := newFilters()
	for _, b := range blocks {
		if h.stt.Probe(addr(b)) {
			want.Insert(addr(b))
		}
	}
	if !h.stt.Probe(addr(shared)) {
		t.Fatalf("block %d, sharing the written block's counter, should still be in the STT-MRAM bank", shared)
	}
	for b := 0; b < 4096; b++ {
		if got, w := h.approx.filters.Test(addr(b)), want.Test(addr(b)); got != w {
			t.Fatalf("block %d: filters answer %v, fresh filters holding the STT-MRAM tags answer %v", b, got, w)
		}
	}
}

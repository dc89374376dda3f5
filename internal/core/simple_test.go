package core

import (
	"reflect"
	"testing"

	"fuse/internal/config"
	"fuse/internal/mem"
)

func readReq(block int, pc uint64, warp int) mem.Request {
	return mem.Request{Addr: uint64(block) * mem.BlockSize, PC: pc, Kind: mem.Read, Warp: warp}
}

func writeReq(block int, pc uint64, warp int) mem.Request {
	r := readReq(block, pc, warp)
	r.Kind = mem.Write
	return r
}

// fillAll drains the outgoing queue and immediately fills every read miss,
// returning the number of fills performed.
func fillAll(l1d L1D, now int64) int {
	fills := 0
	for {
		req, ok := l1d.PopOutgoing()
		if !ok {
			return fills
		}
		if req.Kind == mem.Read {
			l1d.Fill(req.BlockAddr(), now)
			fills++
		}
	}
}

func TestSimpleL1DMissThenHit(t *testing.T) {
	l1d := NewKind(config.L1SRAM)
	if l1d.Kind() != config.L1SRAM {
		t.Fatalf("Kind = %v", l1d.Kind())
	}
	res := l1d.Access(readReq(1, 0x40, 0), 0)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("first access should miss, got %v", res.Outcome)
	}
	// A second access to the same block before the fill merges.
	res = l1d.Access(readReq(1, 0x40, 1), 1)
	if res.Outcome != OutcomeMissMerged {
		t.Fatalf("second access should merge, got %v", res.Outcome)
	}
	var sent []mem.Request
	for req, ok := l1d.PopOutgoing(); ok; req, ok = l1d.PopOutgoing() {
		sent = append(sent, req)
	}
	if len(sent) != 1 || sent[0].BlockAddr() != mem.BlockSize || sent[0].Kind != mem.Read {
		t.Fatalf("a merged miss should send one read for the block, sent %v", sent)
	}
	l1d.Fill(sent[0].BlockAddr(), 100)
	res = l1d.Access(readReq(1, 0x40, 0), 101)
	if res.Outcome != OutcomeHit || res.Latency < 1 {
		t.Errorf("post-fill access should hit with >=1 cycle latency, got %+v", res)
	}
	s := l1d.Stats()
	// Merged misses count as misses for miss-rate purposes and are also
	// reported separately.
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 || s.MergedMiss != 1 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.MissRate() <= 0 {
		t.Errorf("miss rate should be positive")
	}
	// The fill is one bank write and the hit one bank read.
	if s.SRAMWrites != 1 || s.SRAMReads != 1 || s.STTWrites != 0 || s.STTReads != 0 {
		t.Errorf("bank traffic = SRAM %d/%d STT %d/%d reads/writes, want SRAM 1/1 only",
			s.SRAMReads, s.SRAMWrites, s.STTReads, s.STTWrites)
	}
}

func TestSimpleL1DWritebackOnDirtyEviction(t *testing.T) {
	// A tiny 4-set x 2-way cache forces evictions quickly.
	small := config.L1DConfig{
		Kind:           config.L1SRAM,
		SRAMKB:         1,
		SRAMSets:       4,
		SRAMWays:       2,
		SRAMTech:       config.NewL1DConfig(config.L1SRAM).SRAMTech,
		MSHREntries:    8,
		MSHRMergeWidth: 4,
	}
	l1d := MustNew(small)
	// Write-allocate block 0, then displace it with blocks mapping to the
	// same set (stride = number of sets).
	l1d.Access(writeReq(0, 0x40, 0), 0)
	fillAll(l1d, 1)
	for i := 1; i <= 2; i++ {
		l1d.Access(readReq(i*4, 0x80, 0), int64(i*10))
		fillAll(l1d, int64(i*10+1))
	}
	s := l1d.Stats()
	if s.Writebacks == 0 {
		t.Errorf("displacing a dirty block should produce a write-back")
	}
	if s.EvictionsToL2 == 0 {
		t.Errorf("evictions should be counted")
	}
}

func TestFASRAMHasFewerConflictMisses(t *testing.T) {
	// Blocks that collide in the 64-set L1-SRAM all fit in FA-SRAM.
	sa := NewKind(config.L1SRAM)
	fa := NewKind(config.FASRAM)
	conflicting := make([]int, 8)
	for i := range conflicting {
		conflicting[i] = 3 + 64*i
	}
	run := func(l1d L1D) (miss uint64) {
		now := int64(0)
		for round := 0; round < 6; round++ {
			for _, b := range conflicting {
				res := l1d.Access(readReq(b, 0x40, 0), now)
				if res.Outcome == OutcomeMiss {
					fillAll(l1d, now)
				}
				now += 10
			}
		}
		return l1d.Stats().Misses
	}
	missSA := run(sa)
	missFA := run(fa)
	if missFA >= missSA {
		t.Errorf("FA-SRAM should suffer fewer conflict misses: FA=%d SA=%d", missFA, missSA)
	}
}

func TestByNVMBusyBankStalls(t *testing.T) {
	l1d := NewKind(config.ByNVM)
	// Allocate a block, then write-hit it: the 5-cycle STT-MRAM write makes
	// the bank busy and the next access must stall.
	l1d.Access(readReq(1, 0x40, 0), 0)
	fillAll(l1d, 10)
	res := l1d.Access(writeReq(1, 0x44, 0), 20)
	if res.Outcome != OutcomeHit {
		t.Fatalf("write to filled block should hit, got %v", res.Outcome)
	}
	if res.Latency < 5 {
		t.Errorf("STT-MRAM write hit should take >=5 cycles, got %d", res.Latency)
	}
	res = l1d.Access(readReq(1, 0x40, 0), 21)
	if res.Outcome != OutcomeStall {
		t.Errorf("access during STT-MRAM write should stall, got %v", res.Outcome)
	}
	if l1d.Stats().STTWriteStallCycles == 0 {
		t.Errorf("STT write stalls should be counted")
	}
}

func TestByNVMDeadWriteBypass(t *testing.T) {
	l1d := NewKind(config.ByNVM).(*SimpleL1D)
	// Train the dead-write predictor with streaming accesses from one PC on
	// a sampled warp, then check that new misses from that PC bypass.
	pc := uint64(0x1200)
	now := int64(0)
	for i := 0; i < 600; i++ {
		res := l1d.Access(readReq(10000+i, pc, 0), now)
		if res.Outcome == OutcomeStall {
			now += 10
			continue
		}
		fillAll(l1d, now+1)
		now += 10
	}
	if l1d.Stats().Bypasses == 0 {
		t.Errorf("streaming workload should eventually bypass (dead-write prediction)")
	}
}

func TestSimpleL1DMSHRStall(t *testing.T) {
	small := config.NewL1DConfig(config.L1SRAM)
	small.MSHREntries = 1
	small.MSHRMergeWidth = 0
	l1d := MustNew(small)
	if res := l1d.Access(readReq(1, 0x40, 0), 0); res.Outcome != OutcomeMiss {
		t.Fatalf("first miss expected")
	}
	// Second miss to a different block: MSHR is full.
	if res := l1d.Access(readReq(2, 0x40, 0), 1); res.Outcome != OutcomeStall {
		t.Errorf("expected MSHR stall, got %v", res.Outcome)
	}
	if l1d.Stats().MSHRStallEvents == 0 {
		t.Errorf("MSHR stalls should be counted")
	}
	// Stats must not double-count the rejected access.
	if l1d.Stats().Accesses != 1 {
		t.Errorf("rejected access should not be counted, accesses=%d", l1d.Stats().Accesses)
	}
}

func TestSimpleL1DFillUnknownBlock(t *testing.T) {
	filled, untouched := NewKind(config.L1SRAM), NewKind(config.L1SRAM)
	for _, l1d := range []L1D{filled, untouched} {
		mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
	}
	filled.Fill(0x12345680, 5)
	if !reflect.DeepEqual(filled, untouched) {
		t.Errorf("a fill of an unknown block changed the cache")
	}
}

func TestSimpleL1DTickIsNoOp(t *testing.T) {
	l1d := NewKind(config.ByNVM)
	l1d.Access(readReq(1, 0x40, 0), 0)
	l1d.Tick(1) // no-op, must not panic
}

func TestOutcomeString(t *testing.T) {
	outcomes := map[AccessOutcome]string{
		OutcomeHit:        "hit",
		OutcomeMiss:       "miss",
		OutcomeMissMerged: "miss-merged",
		OutcomeBypass:     "bypass",
		OutcomeStall:      "stall",
	}
	for o, s := range outcomes {
		if o.String() != s {
			t.Errorf("outcome %d string = %q, want %q", o, o.String(), s)
		}
	}
	if AccessOutcome(99).String() != "unknown" {
		t.Errorf("unknown outcome should render as unknown")
	}
	var st Stats
	if st.MissRate() != 0 {
		t.Errorf("zero stats should report a zero miss rate")
	}
}

func TestFactory(t *testing.T) {
	for _, kind := range config.AllL1DKinds {
		l1d, err := New(config.NewL1DConfig(kind))
		if err != nil {
			t.Errorf("New(%v): %v", kind, err)
			continue
		}
		if l1d.Kind() != kind {
			t.Errorf("New(%v).Kind() = %v", kind, l1d.Kind())
		}
	}
	if _, err := New(config.L1DConfig{}); err == nil {
		t.Errorf("invalid config should fail")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic on invalid config")
		}
	}()
	MustNew(config.L1DConfig{})
}

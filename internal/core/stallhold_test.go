package core

import (
	"math"
	"reflect"
	"testing"

	"fuse/internal/config"
	"fuse/internal/mem"
)

// statsDelta returns after-before for every counter of Stats, including the
// ones nested in structs (the predictor accuracy tracker).
func statsDelta(before, after Stats) []uint64 {
	var out []uint64
	var walk func(b, a reflect.Value)
	walk = func(b, a reflect.Value) {
		switch b.Kind() {
		case reflect.Struct:
			for i := 0; i < b.NumField(); i++ {
				walk(b.Field(i), a.Field(i))
			}
		case reflect.Uint64:
			out = append(out, a.Uint()-b.Uint())
		}
	}
	walk(reflect.ValueOf(before), reflect.ValueOf(after))
	return out
}

// stallCase drives a cache into one stall path. setup returns the cache,
// the rejected request, the cycle it was rejected at, and the hold the cache
// must report for it.
type stallCase struct {
	name  string
	setup func(t *testing.T) (l1d L1D, req mem.Request, at, hold int64)
}

// stallCases covers every stall path that reports a hold.
func stallCases() []stallCase {
	fullMSHR := func(kind config.L1DKind) func(t *testing.T) (L1D, mem.Request, int64, int64) {
		return func(t *testing.T) (L1D, mem.Request, int64, int64) {
			cfg := config.NewL1DConfig(kind)
			cfg.MSHREntries, cfg.MSHRMergeWidth = 1, 0
			l1d := MustNew(cfg)
			mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
			req := readReq(2, 0x80, 1)
			mustOutcome(t, l1d, req, 1, OutcomeStall)
			return l1d, req, 1, math.MaxInt64
		}
	}
	fullMerge := func(kind config.L1DKind) func(t *testing.T) (L1D, mem.Request, int64, int64) {
		return func(t *testing.T) (L1D, mem.Request, int64, int64) {
			cfg := config.NewL1DConfig(kind)
			cfg.MSHRMergeWidth = 1
			l1d := MustNew(cfg)
			mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
			mustOutcome(t, l1d, readReq(1, 0x40, 1), 1, OutcomeMissMerged)
			req := readReq(1, 0x40, 2)
			mustOutcome(t, l1d, req, 2, OutcomeStall)
			return l1d, req, 2, math.MaxInt64
		}
	}
	return []stallCase{
		{"L1-SRAM/full-MSHR-file", fullMSHR(config.L1SRAM)},
		{"FA-SRAM/full-merge-list", fullMerge(config.FASRAM)},
		{"Dy-FUSE/full-MSHR-file", fullMSHR(config.DyFUSE)},
		{"FA-FUSE/full-merge-list", fullMerge(config.FAFUSE)},
		{"FA-FUSE/full-MSHR-file-after-CBF-false-positive", func(t *testing.T) (L1D, mem.Request, int64, int64) {
			// One single-slot CBF: once a migrated block is registered,
			// every membership test is positive, so the rejected block's
			// tag search is a false positive that scans its region twice.
			cfg := config.NewL1DConfig(config.FAFUSE)
			cfg.SRAMKB, cfg.SRAMSets, cfg.SRAMWays = 1, 4, 2
			cfg.CBFCount, cfg.CBFSlots = 1, 1
			cfg.MSHREntries = 1
			h := MustNew(cfg).(*HybridL1D)
			now := int64(0)
			for _, block := range []int{0, 4, 8} { // all in SRAM set 0
				mustOutcome(t, h, readReq(block, 0x40, 0), now, OutcomeMiss)
				now++
				fillAll(h, now)
			}
			for ; h.NextInternalEventAt(now) >= 0; now++ {
				h.Tick(now) // retire block 0's migration into the STT-MRAM bank
			}
			if !h.stt.Probe(0) {
				t.Fatal("block 0 should have migrated into the STT-MRAM bank")
			}
			mustOutcome(t, h, readReq(12, 0x40, 0), now, OutcomeMiss)
			req := readReq(16, 0x40, 1)
			mustOutcome(t, h, req, now, OutcomeStall)
			// The lookup moves no state, so asking it again shows what
			// the rejected access's search found.
			block := req.BlockAddr()
			if mayHit, _ := h.approx.Lookup(block, false); !mayHit || h.stt.Probe(block) {
				t.Fatal("the rejected access's tag search was no CBF false positive")
			}
			return h, req, now, math.MaxInt64
		}},
		{"Hybrid/blocking-migration", func(t *testing.T) (L1D, mem.Request, int64, int64) {
			h, now := hybridWithMigratedBlock(t, 4)
			if h.blockedUntil <= now+1 {
				t.Fatalf("the migration left no blocking window (blocked until %d at cycle %d)", h.blockedUntil, now)
			}
			req := readReq(999, 0x40, 0)
			mustOutcome(t, h, req, now, OutcomeStall)
			return h, req, now, h.blockedUntil
		}},
		{"Hybrid/busy-STT-bank", func(t *testing.T) (L1D, mem.Request, int64, int64) {
			// A 4-cycle STT-MRAM read keeps the bank busy without
			// blocking the cache: a second read must wait for the bank.
			h, now := hybridWithMigratedBlock(t, 4)
			now = h.blockedUntil
			mustOutcome(t, h, readReq(0, 0x40, 0), now, OutcomeHit)
			req := readReq(0, 0x40, 1)
			mustOutcome(t, h, req, now+1, OutcomeStall)
			return h, req, now + 1, h.sttBank.BusyUntil()
		}},
		{"STT-only/busy-bank", func(t *testing.T) (L1D, mem.Request, int64, int64) {
			// By-NVM's pure STT-MRAM cache without its dead-write
			// predictor: the fill's 5-cycle write keeps the bank busy.
			cfg := config.NewL1DConfig(config.ByNVM)
			cfg.UseDeadWriteBypass = false
			s := MustNew(cfg).(*SimpleL1D)
			mustOutcome(t, s, readReq(1, 0x40, 0), 0, OutcomeMiss)
			fillAll(s, 10)
			req := readReq(1, 0x40, 0)
			mustOutcome(t, s, req, 11, OutcomeStall)
			return s, req, 11, s.bank.BusyUntil()
		}},
	}
}

// hybridWithMigratedBlock returns a Hybrid cache (STT-MRAM reads taking
// readLatency cycles) whose SRAM eviction of block 0 has just started a
// blocking migration into the STT-MRAM bank, and the cycle it started at.
func hybridWithMigratedBlock(t *testing.T, readLatency int) (*HybridL1D, int64) {
	t.Helper()
	cfg := config.NewL1DConfig(config.Hybrid)
	cfg.SRAMKB, cfg.SRAMSets, cfg.SRAMWays = 1, 4, 2
	cfg.STTTech.ReadLatency = readLatency
	h := MustNew(cfg).(*HybridL1D)
	now := int64(0)
	for _, block := range []int{0, 4, 8} { // all in SRAM set 0
		mustOutcome(t, h, readReq(block, 0x40, 0), now, OutcomeMiss)
		now++
		fillAll(h, now)
	}
	if h.Stats().MigrationsToSTT != 1 || !h.stt.Probe(0) {
		t.Fatalf("block 0 should have migrated to STT-MRAM (%d migrations)", h.Stats().MigrationsToSTT)
	}
	return h, now
}

func mustOutcome(t *testing.T, l1d L1D, req mem.Request, now int64, want AccessOutcome) {
	t.Helper()
	if got := l1d.Access(req, now).Outcome; got != want {
		t.Fatalf("access to block %#x at cycle %d: %v, want %v", req.BlockAddr(), now, got, want)
	}
}

// TestStallHoldRepeatsExactly is the property the simulator's stall replay
// rests on: after a rejected access, re-presenting the same request at any
// cycle before the reported hold (with no fill and no tick in between)
// stalls again and moves every counter by exactly the same amount, and the
// hold is no later than the first cycle the request is accepted.
func TestStallHoldRepeatsExactly(t *testing.T) {
	for _, c := range stallCases() {
		t.Run(c.name, func(t *testing.T) {
			l1d, req, at, hold := c.setup(t)
			if got := l1d.StallHold(); got != hold {
				t.Fatalf("StallHold() = %d, want %d", got, hold)
			}
			end := hold
			if hold == math.MaxInt64 {
				end = at + 500 // only a fill ends it: sample a window
			}
			var first []uint64
			for now := at + 1; now < end; now++ {
				before := *l1d.Stats()
				req.Issue = now
				if got := l1d.Access(req, now).Outcome; got != OutcomeStall {
					t.Fatalf("cycle %d, before the hold at %d: %v, want a stall", now, hold, got)
				}
				d := statsDelta(before, *l1d.Stats())
				if first == nil {
					first = d
				} else if !reflect.DeepEqual(d, first) {
					t.Fatalf("cycle %d: counter deltas %v differ from the first repeat's %v", now, d, first)
				}
				if got := l1d.StallHold(); got != hold {
					t.Fatalf("cycle %d: StallHold() = %d, want %d", now, got, hold)
				}
			}
			if first == nil {
				t.Fatalf("the hold at %d left no cycle to repeat after %d", hold, at)
			}
			if hold != math.MaxInt64 {
				if got := l1d.Access(req, hold).Outcome; got == OutcomeStall {
					t.Fatalf("still rejected at the hold %d; this case expects the hold to end the stall", hold)
				}
			}
		})
	}
}

// TestByNVMReportsNoHold pins By-NVM's exception: its dead-write predictor
// observes every attempt, rejected or not, so no rejection is a pure repeat.
func TestByNVMReportsNoHold(t *testing.T) {
	l1d := NewKind(config.ByNVM)
	mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
	fillAll(l1d, 10)
	mustOutcome(t, l1d, readReq(1, 0x40, 0), 11, OutcomeStall) // busy bank
	if got := l1d.StallHold(); got != 0 {
		t.Fatalf("By-NVM StallHold() = %d after a busy-bank stall, want 0", got)
	}

	cfg := config.NewL1DConfig(config.ByNVM)
	cfg.MSHREntries, cfg.MSHRMergeWidth = 1, 0
	l1d = MustNew(cfg)
	mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
	mustOutcome(t, l1d, readReq(2, 0x40, 0), 1, OutcomeStall) // full MSHR file
	if got := l1d.StallHold(); got != 0 {
		t.Fatalf("By-NVM StallHold() = %d after an MSHR stall, want 0", got)
	}
}

// TestRepeatStallMatchesRepeatedAccess is the property the SM's held-stall
// replay (SM.CatchUp) rests on: after a held rejection, RepeatStall(k)
// leaves the cache exactly as k real re-presentations of the request before
// the hold would — every field of the cache and of its components (MSHR,
// counting Bloom filters, approximation logic, predictor) included.
func TestRepeatStallMatchesRepeatedAccess(t *testing.T) {
	for _, c := range stallCases() {
		t.Run(c.name, func(t *testing.T) {
			replayed, req, at, hold := c.setup(t)
			charged, _, _, _ := c.setup(t)
			k := hold - at - 1
			if hold == math.MaxInt64 {
				k = 300 // only a fill ends it: repeat a window
			}
			for now := at + 1; now <= at+k; now++ {
				req.Issue = now
				mustOutcome(t, replayed, req, now, OutcomeStall)
			}
			charged.RepeatStall(uint64(k))
			if !reflect.DeepEqual(replayed, charged) {
				t.Fatalf("RepeatStall(%d) differs from %d re-presentations:\nreplayed: %+v\ncharged:  %+v",
					k, k, *replayed.Stats(), *charged.Stats())
			}
		})
	}
}

// TestByNVMRepeatStallPanics pins that a cache reporting no hold refuses to
// guess what a repeat would move.
func TestByNVMRepeatStallPanics(t *testing.T) {
	l1d := NewKind(config.ByNVM)
	mustOutcome(t, l1d, readReq(1, 0x40, 0), 0, OutcomeMiss)
	fillAll(l1d, 10)
	mustOutcome(t, l1d, readReq(1, 0x40, 0), 11, OutcomeStall)
	defer func() {
		if recover() == nil {
			t.Fatal("By-NVM RepeatStall did not panic")
		}
	}()
	l1d.RepeatStall(1)
}

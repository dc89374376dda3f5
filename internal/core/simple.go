package core

import (
	"math"

	"fuse/internal/cache"
	"fuse/internal/config"
	"fuse/internal/mem"
	"fuse/internal/memtech"
	"fuse/internal/predictor"
)

// SimpleL1D models the single-technology baselines: the conventional L1-SRAM
// cache, the fully-associative FA-SRAM reference, the pure STT-MRAM By-NVM
// cache with dead-write bypassing, and the Oracle cache of the motivation
// study. One tag store, one technology bank, one MSHR.
type SimpleL1D struct {
	cfg   config.L1DConfig
	store *cache.TagStore
	bank  *memtech.Bank
	mshr  *cache.MSHR

	// deadWrite is non-nil only for By-NVM.
	deadWrite *predictor.DeadWritePredictor

	// outgoing is a head-indexed FIFO (see HybridL1D.outgoing).
	outgoing []mem.Request
	outHead  int
	// stallHold is the StallHold of the latest rejected access, and
	// stallReason what rejected it (what RepeatStall charges).
	stallHold   int64
	stallReason StallReason
	stats       Stats
}

// newSimpleL1D builds a SimpleL1D from a pure-SRAM or pure-STT configuration.
func newSimpleL1D(cfg config.L1DConfig) *SimpleL1D {
	s := &SimpleL1D{cfg: cfg}
	if cfg.SRAMKB > 0 {
		s.store = cache.NewTagStore(cfg.SRAMSets, cfg.SRAMWays, cache.LRU)
		s.bank = memtech.NewBank(cfg.SRAMTech)
	} else {
		s.store = cache.NewTagStore(cfg.STTSets, cfg.STTWays, cache.LRU)
		s.bank = memtech.NewBank(cfg.STTTech)
	}
	s.mshr = cache.NewMSHR(cfg.MSHREntries, cfg.MSHRMergeWidth)
	if cfg.UseDeadWriteBypass {
		s.deadWrite = predictor.NewDeadWritePredictor(predictor.Config{})
	}
	return s
}

// Kind implements L1D.
func (s *SimpleL1D) Kind() config.L1DKind { return s.cfg.Kind }

// Stats implements L1D.
func (s *SimpleL1D) Stats() *Stats { return &s.stats }

// isSTT reports whether the single bank is STT-MRAM.
func (s *SimpleL1D) isSTT() bool { return s.cfg.SRAMKB == 0 }

// bankDest returns the destination-bank tag for fills.
func (s *SimpleL1D) bankDest() cache.DestBank {
	if s.isSTT() {
		return cache.DestSTTMRAM
	}
	return cache.DestSRAM
}

// recordBankAccess updates the per-bank traffic counters.
func (s *SimpleL1D) recordBankAccess(write bool) {
	if s.isSTT() {
		if write {
			s.stats.STTWrites++
		} else {
			s.stats.STTReads++
		}
	} else {
		if write {
			s.stats.SRAMWrites++
		} else {
			s.stats.SRAMReads++
		}
	}
}

// Access implements L1D.
func (s *SimpleL1D) Access(req mem.Request, now int64) AccessResult {
	if s.deadWrite != nil {
		s.deadWrite.Observe(req)
	}
	write := req.Kind == mem.Write
	block := req.BlockAddr()

	// A busy STT-MRAM bank rejects the access: this is the write penalty
	// that makes pure-NVM caches struggle on write-heavy workloads.
	if s.isSTT() && s.bank.Busy(now) {
		s.stats.STTWriteStallCycles++
		s.stallHold, s.stallReason = s.bank.BusyUntil(), StallSTTWrite
		return AccessResult{Outcome: OutcomeStall, Bank: s.bankDest()}
	}

	s.stats.Accesses++
	if write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}

	if _, hit := s.store.Touch(block, write); hit {
		s.stats.Hits++
		if s.isSTT() {
			s.stats.STTHits++
		} else {
			s.stats.SRAMHits++
		}
		done := s.bank.Access(now, write)
		s.recordBankAccess(write)
		return AccessResult{Outcome: OutcomeHit, Latency: int(done - now), Bank: s.bankDest()}
	}

	// Miss path. By-NVM consults the dead-write predictor: a block whose
	// allocating PC produces dead writes bypasses the cache entirely.
	dest := s.bankDest()
	level := mem.ReadLevel(mem.WORM)
	if s.deadWrite != nil && s.deadWrite.PredictDead(req.PC) {
		dest = cache.DestBypass
		s.stats.Bypasses++
	} else {
		s.stats.Misses++
	}

	primary, err := s.mshr.Allocate(req, dest, level)
	if err != nil {
		s.stats.MSHRStallEvents++
		// Undo the access accounting: the SM will retry this request.
		s.stats.Accesses--
		if write {
			s.stats.Writes--
		} else {
			s.stats.Reads--
		}
		if dest == cache.DestBypass {
			s.stats.Bypasses--
		} else {
			s.stats.Misses--
		}
		// Only a Fill releases an MSHR entry or a merge slot.
		s.stallHold, s.stallReason = math.MaxInt64, StallMSHR
		return AccessResult{Outcome: OutcomeStall, Bank: dest}
	}
	if primary {
		out := req
		out.Addr = block
		out.Kind = mem.Read
		s.outgoing = append(s.outgoing, out)
		s.stats.OutgoingRequests++
		if dest == cache.DestBypass {
			return AccessResult{Outcome: OutcomeBypass, Bank: dest}
		}
		return AccessResult{Outcome: OutcomeMiss, Bank: dest}
	}
	s.stats.MergedMiss++
	return AccessResult{Outcome: OutcomeMissMerged, Bank: dest}
}

// Fill implements L1D.
func (s *SimpleL1D) Fill(block uint64, now int64) int {
	entry, ok := s.mshr.Release(block)
	if !ok {
		return 0
	}
	served := 1 + len(entry.Merged)
	write := entry.Primary.Kind == mem.Write
	pc := entry.Primary.PC
	dest, level := entry.Dest, entry.Level
	s.mshr.Recycle(entry)
	if dest == cache.DestBypass {
		return served
	}
	evicted, _ := s.store.Insert(block, pc, write, level)
	s.bank.Access(now, true) // the fill itself is a bank write
	s.recordBankAccess(true)
	if evicted.Valid {
		s.stats.EvictionsToL2++
		if evicted.Dirty {
			s.writeback(evicted, now)
		}
	}
	return served
}

// writeback queues a dirty eviction toward the L2.
func (s *SimpleL1D) writeback(line cache.Line, now int64) {
	s.stats.Writebacks++
	s.stats.OutgoingRequests++
	s.outgoing = append(s.outgoing, mem.Request{
		Addr:  line.Block,
		PC:    line.PC,
		Kind:  mem.Write,
		Size:  mem.BlockSize,
		Issue: now,
	})
}

// PopOutgoing implements L1D.
func (s *SimpleL1D) PopOutgoing() (mem.Request, bool) {
	if s.outHead >= len(s.outgoing) {
		return mem.Request{}, false
	}
	req := s.outgoing[s.outHead]
	s.outHead++
	if s.outHead == len(s.outgoing) {
		s.outgoing = s.outgoing[:0]
		s.outHead = 0
	}
	return req, true
}

// Tick implements L1D. The simple organisations have no background machinery.
func (s *SimpleL1D) Tick(now int64) {}

// NextInternalEventAt implements L1D: no background machinery, never busy.
func (s *SimpleL1D) NextInternalEventAt(now int64) int64 { return -1 }

// StallHold implements L1D. By-NVM's dead-write predictor observes every
// attempt, rejected or not, so no rejection is a pure repeat: each attempt
// sees a predictor the earlier ones trained, and By-NVM holds nothing.
func (s *SimpleL1D) StallHold() int64 {
	if s.deadWrite != nil {
		return 0
	}
	return s.stallHold
}

// RepeatStall implements L1D: a busy bank charges one stall cycle per
// attempt, a full MSHR file or merge list one rejection per attempt (the
// access counters are undone within each attempt). By-NVM holds nothing, so
// it has nothing to repeat.
func (s *SimpleL1D) RepeatStall(n uint64) {
	if s.deadWrite != nil {
		noHeldStall()
	}
	switch s.stallReason {
	case StallSTTWrite:
		s.stats.STTWriteStallCycles += n
	case StallMSHR:
		s.stats.MSHRStallEvents += n
	}
}

// noHeldStall reports a RepeatStall on a cache that holds no stall. It stays
// out of line so that the message's allocation is not inlined into the
// allocation-free caller.
//
//go:noinline
func noHeldStall() {
	panic("core: By-NVM reports no stall hold, so it has no stall to repeat")
}

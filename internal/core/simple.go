package core

import (
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
	l1dBase
	store *cache.TagStore
	bank  *memtech.Bank

	// deadWrite is non-nil only for By-NVM.
	deadWrite *predictor.DeadWritePredictor
}

// newSimpleL1D builds a SimpleL1D from a pure-SRAM or pure-STT configuration.
func newSimpleL1D(cfg config.L1DConfig) *SimpleL1D {
	s := &SimpleL1D{l1dBase: newL1DBase(cfg)}
	if cfg.SRAMKB > 0 {
		s.store = cache.NewTagStore(cfg.SRAMSets, cfg.SRAMWays, cache.LRU)
		s.bank = memtech.NewBank(cfg.SRAMTech)
	} else {
		s.store = cache.NewTagStore(cfg.STTSets, cfg.STTWays, cache.LRU)
		s.bank = memtech.NewBank(cfg.STTTech)
	}
	if cfg.UseDeadWriteBypass {
		s.deadWrite = predictor.NewDeadWritePredictor()
	}
	return s
}

// isSTT reports whether the single bank is STT-MRAM.
func (s *SimpleL1D) isSTT() bool { return s.cfg.SRAMKB == 0 }

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
	// A busy STT-MRAM bank rejects the access: this is the write penalty
	// that makes pure-NVM caches struggle on write-heavy workloads.
	if s.isSTT() && s.bank.Busy(now) {
		s.stats.STTWriteStallCycles++
		return s.stall(s.bank.BusyUntil(), StallSTTWrite, 0)
	}

	write := req.Kind == mem.Write
	s.countAccess(write)
	if _, hit := s.store.Touch(req.BlockAddr(), write); hit {
		s.stats.Hits++
		if s.isSTT() {
			s.stats.STTHits++
		} else {
			s.stats.SRAMHits++
		}
		done := s.bank.Access(now, write)
		s.recordBankAccess(write)
		return AccessResult{Outcome: OutcomeHit, Latency: int(done - now)}
	}

	// Miss path. By-NVM consults the dead-write predictor: a block whose
	// allocating PC produces dead writes bypasses the cache entirely.
	dest := cache.DestSRAM
	if s.isSTT() {
		dest = cache.DestSTTMRAM
	}
	if s.deadWrite != nil && s.deadWrite.PredictDead(req.PC) {
		dest = cache.DestBypass
	}
	return s.miss(req, dest, mem.WORM, 0)
}

// Fill implements L1D.
func (s *SimpleL1D) Fill(block uint64, now int64) {
	e, ok := s.mshr.Release(block)
	if !ok || e.Dest == cache.DestBypass {
		return
	}
	evicted, _ := s.store.Insert(block, e.PC, e.Write, e.Level)
	s.bank.Access(now, true) // the fill itself is a bank write
	s.recordBankAccess(true)
	if evicted.Valid {
		s.stats.EvictionsToL2++
		if evicted.Dirty {
			s.writeback(evicted, now)
		}
	}
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
	if s.held.reason == StallSTTWrite {
		s.stats.STTWriteStallCycles += n
	}
	s.l1dBase.RepeatStall(n)
}

// noHeldStall reports a RepeatStall on a cache that holds no stall. It stays
// out of line so that the message's allocation is not inlined into the
// allocation-free caller.
//
//go:noinline
func noHeldStall() {
	panic("core: By-NVM reports no stall hold, so it has no stall to repeat")
}

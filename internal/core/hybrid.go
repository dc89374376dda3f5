package core

import (
	"fuse/internal/cache"
	"fuse/internal/config"
	"fuse/internal/mem"
	"fuse/internal/memtech"
	"fuse/internal/predictor"
)

// HybridL1D is the heterogeneous SRAM + STT-MRAM L1D cache. Depending on its
// configuration it models four of the paper's organisations:
//
//   - Hybrid: the two banks with no further optimisation. Every migration
//     into the STT-MRAM bank blocks the whole cache for the duration of the
//     STT-MRAM write.
//   - Base-FUSE: adds the swap buffer and tag queue, making the STT-MRAM bank
//     non-blocking.
//   - FA-FUSE: additionally organises the STT-MRAM bank as an approximately
//     fully-associative cache guarded by counting Bloom filters.
//   - Dy-FUSE: additionally steers blocks with the read-level predictor.
type HybridL1D struct {
	l1dBase

	sram     *cache.TagStore
	stt      *cache.TagStore
	sramBank *memtech.Bank
	sttBank  *memtech.Bank

	swap   *SwapBuffer
	queue  *TagQueue
	approx *ApproxLogic
	pred   *predictor.ReadLevelPredictor

	// blockedUntil is the cycle until which the whole cache is blocked
	// (Hybrid-style blocking migrations or tag-queue flushes).
	blockedUntil int64
	// sttStallChargedUntil is the cycle up to which STT-write stall cycles
	// have already been accounted, so that overlapping blocking windows and
	// per-request retries never charge the same cycle twice.
	sttStallChargedUntil int64
	// dropScratch is the reusable keep-list of dropQueuedOp.
	dropScratch []TagOp
}

// newHybridL1D builds a HybridL1D from a hybrid configuration.
func newHybridL1D(cfg config.L1DConfig) *HybridL1D {
	h := &HybridL1D{l1dBase: newL1DBase(cfg)}
	h.sram = cache.NewTagStore(cfg.SRAMSets, cfg.SRAMWays, cache.LRU)
	// The STT-MRAM bank uses FIFO replacement: true LRU is unaffordable at
	// 512 ways (Section V, simulation methodology).
	h.stt = cache.NewTagStore(cfg.STTSets, cfg.STTWays, cache.FIFO)
	h.sramBank = memtech.NewBank(cfg.SRAMTech)
	h.sttBank = memtech.NewBank(cfg.STTTech)
	h.swap = NewSwapBuffer(cfg.SwapBufferEntries)
	h.queue = NewTagQueue(cfg.TagQueueEntries)
	if cfg.ApproxFullyAssociative {
		h.approx = NewApproxLogic(cfg.STTBlocks(), cfg.CBFCount, cfg.CBFSlots, cfg.CBFHashes, cfg.Comparators)
	}
	if cfg.UseReadLevelPredictor {
		h.pred = predictor.NewReadLevelPredictor()
	}
	return h
}

// nonBlocking reports whether the configuration has the swap buffer and tag
// queue (Base-FUSE and above).
func (h *HybridL1D) nonBlocking() bool {
	return h.cfg.SwapBufferEntries > 0 && h.cfg.TagQueueEntries > 0
}

// Access implements L1D. This is the arbitration logic of Figure 9: consult
// the status of the SRAM bank, the STT-MRAM bank (through the approximation
// logic when present) and the predictor, then steer the request.
func (h *HybridL1D) Access(req mem.Request, now int64) AccessResult {
	res := h.access(req, now)
	// The predictor samples each accepted request exactly once: a rejected
	// request will be retried by the SM, and observing the retry as well
	// would make every stalled write look like a re-reference and poison
	// the read-level history.
	if h.pred != nil && res.Outcome != OutcomeStall {
		h.pred.Observe(req)
	}
	return res
}

// access is the body of Access; it returns the outcome without touching the
// predictor's sampler.
func (h *HybridL1D) access(req mem.Request, now int64) AccessResult {
	// A blocked cache (Hybrid migration or tag-queue flush in flight)
	// rejects every request. The stall cycles of the blocking window were
	// charged when the block was installed; charging here as well would
	// count one blocked cycle once per retrying warp (several warps retry
	// within the same cycle), inflating the Figure-15 decomposition.
	if now < h.blockedUntil {
		h.chargeSTTStall(now, h.blockedUntil)
		return h.stall(h.blockedUntil, StallSTTWrite, 0)
	}
	write := req.Kind == mem.Write
	block := req.BlockAddr()
	h.countAccess(write)

	// 1. SRAM tag lookup: always single-cycle, always in parallel with the
	// STT-MRAM search, so an SRAM hit terminates the STT-MRAM search.
	if _, hit := h.sram.Touch(block, write); hit {
		h.stats.SRAMHits++
		return h.sramSideHit(now, write)
	}

	// 2. Swap buffer snoop: blocks in flight from SRAM to STT-MRAM are
	// still logically present.
	if h.swap.Lookup(block) {
		h.stats.SwapHits++
		if write {
			// Pull the block back into SRAM: a write would otherwise
			// chase the migration into the STT-MRAM bank.
			dirty, _ := h.swap.Remove(block)
			h.dropQueuedOp(block)
			h.insertSRAM(block, req.PC, now, true, mem.WriteMultiple, dirty)
			h.stats.MigrationsToSRAM++
		}
		return h.sramSideHit(now, write)
	}

	// 3. Tag-queue snoop: a fill or migration that is queued but not yet
	// written into the STT-MRAM array is still owned by the cache (its data
	// waits in the swap buffer or the fill response register), so a lookup
	// must hit or the cache would fetch a block it already holds. Reads are
	// served at SRAM-side latency, exactly like a swap hit; writes pull the
	// block into SRAM instead of chasing the queued operation into the
	// STT-MRAM bank.
	if h.nonBlocking() && h.queue.Contains(block) {
		h.stats.QueueHits++
		if write {
			// Queue-only entries are exactly the fills whose swap-buffer
			// insert failed (a swap-resident block is caught by step 2
			// above), so only the queued operation needs dropping.
			op, _ := h.dropQueuedOp(block)
			h.insertSRAM(block, req.PC, now, true, mem.WriteMultiple, op.Dirty)
			h.stats.MigrationsToSRAM++
		}
		return h.sramSideHit(now, write)
	}

	// 4. STT-MRAM tag search, through the approximation logic if present.
	searchCycles := 0
	mayHit := true
	present := h.stt.Probe(block)
	if h.approx != nil {
		mayHit, searchCycles = h.approx.Lookup(block, present)
		h.stats.TagSearchStallCycles += uint64(searchCycles)
	}
	if mayHit && present {
		return h.sttHit(req, block, now, write, searchCycles)
	}

	// 5. Miss: decide the fill destination and allocate an MSHR entry. A
	// CBF-negative search misses even when the block is present.
	dest, level := h.fillDest(req.PC)
	return h.miss(req, dest, level, searchCycles)
}

// sramSideHit serves a hit on the SRAM side (the SRAM bank, the swap buffer
// or a queued fill) at SRAM latency.
func (h *HybridL1D) sramSideHit(now int64, write bool) AccessResult {
	h.stats.Hits++
	done := h.sramBank.Access(now, write)
	if write {
		h.stats.SRAMWrites++
	} else {
		h.stats.SRAMReads++
	}
	return AccessResult{Outcome: OutcomeHit, Latency: int(done - now)}
}

// sttHit services a request that hit in the STT-MRAM bank.
func (h *HybridL1D) sttHit(req mem.Request, block uint64, now int64, write bool, searchCycles int) AccessResult {
	if !write {
		// Read hit: served at STT-MRAM read latency. Without a tag queue
		// (Hybrid) a busy bank rejects the request; with one, the access
		// is absorbed.
		if !h.nonBlocking() && h.sttBank.Busy(now) {
			return h.sttBusyStall(now, write, searchCycles)
		}
		h.stt.Touch(block, false)
		h.stats.Hits++
		h.stats.STTHits++
		done := h.sttBank.Access(now, false)
		h.stats.STTReads++
		lat := int(done-now) + searchCycles
		return AccessResult{Outcome: OutcomeHit, Latency: lat}
	}

	// Write hit on STT-MRAM: the block was predicted WORM but is being
	// updated (a misprediction, or simply WM data in a predictor-less
	// configuration).
	if h.nonBlocking() {
		// Flush the tag queue, then migrate the block to SRAM where the
		// write is cheap. The flush drains pending fills/migrations into
		// the STT-MRAM bank first.
		if !h.queue.Empty() {
			h.stats.TagQueueFlushes++
			h.drainQueue(now)
		}
		// The flush may itself have evicted the block from the STT-MRAM
		// bank, and then the filters no longer hold it.
		line := h.stt.Invalidate(block)
		if h.approx != nil && line.Valid {
			h.approx.Unregister(block)
		}
		// Read the data out of the STT-MRAM array. The bank serialises the
		// read behind any in-flight write, and the migrating write into
		// SRAM cannot start before the data is available, so the reported
		// latency must include both the busy window and the STT read.
		readDone := h.sttBank.Access(now, false)
		h.stats.STTReads++
		h.stats.MigrationsToSRAM++
		h.insertSRAM(block, req.PC, now, true, mem.WriteMultiple, line.Dirty)
		h.stats.Hits++
		h.stats.STTHits++
		done := h.sramBank.Access(readDone, true)
		h.stats.SRAMWrites++
		return AccessResult{Outcome: OutcomeHit, Latency: int(done-now) + searchCycles}
	}

	// Hybrid: the write goes straight into the STT-MRAM bank and blocks
	// the cache for the full write latency.
	if h.sttBank.Busy(now) {
		return h.sttBusyStall(now, write, searchCycles)
	}
	h.stt.Touch(block, true)
	h.stats.Hits++
	h.stats.STTHits++
	done := h.sttBank.Access(now, true)
	h.stats.STTWrites++
	h.blockedUntil = done
	// The writing warp makes progress this cycle; only [now+1, done) is
	// blocked for everyone.
	h.chargeSTTStall(now+1, done)
	return AccessResult{Outcome: OutcomeHit, Latency: int(done - now)}
}

// sttBusyStall rejects an access that must wait for the busy STT-MRAM bank
// (Hybrid has no tag queue to absorb it).
func (h *HybridL1D) sttBusyStall(now int64, write bool, searchCycles int) AccessResult {
	h.chargeSTTStall(now, h.sttBank.BusyUntil())
	h.undoAccess(write)
	return h.stall(h.sttBank.BusyUntil(), StallSTTWrite, searchCycles)
}

// chargeSTTStall accounts the blocked cycles in [from, until) to the
// STT-write stall counter, skipping any prefix that has already been charged.
// Every stall-charging path goes through here so that each blocked cycle is
// counted exactly once, no matter how many warps retry inside the window or
// how blocking windows overlap.
func (h *HybridL1D) chargeSTTStall(from, until int64) {
	if from < h.sttStallChargedUntil {
		from = h.sttStallChargedUntil
	}
	if until <= from {
		return
	}
	h.stats.STTWriteStallCycles += uint64(until - from)
	h.sttStallChargedUntil = until
}

// fillDest decides where the fill of a miss by the instruction at pc goes,
// and the read level it records.
func (h *HybridL1D) fillDest(pc uint64) (cache.DestBank, mem.ReadLevel) {
	if h.pred == nil {
		return cache.DestSRAM, mem.WORM
	}
	level, neutral := h.pred.Predict(pc), h.pred.Neutral(pc)
	switch {
	case level == mem.WORO && !neutral:
		// Single-use data: do not pollute either bank.
		return cache.DestBypass, level
	case level == mem.WriteMultiple && !neutral:
		return cache.DestSRAM, level
	case level == mem.WORM && !neutral:
		return cache.DestSTTMRAM, level
	case h.cfg.ApproxFullyAssociative:
		// Neutral / read-intensive: prefer the STT-MRAM bank when it is
		// organised as (approximately) fully associative, because capacity
		// is what read-intensive data wants; otherwise SRAM.
		return cache.DestSTTMRAM, level
	default:
		return cache.DestSRAM, level
	}
}

// Fill implements L1D: the MSHR's destination bits steer the returning block
// into the SRAM bank, the STT-MRAM bank (via the tag queue when present) or
// straight to the core (bypass).
func (h *HybridL1D) Fill(block uint64, now int64) {
	e, ok := h.mshr.Release(block)
	if !ok {
		return
	}
	switch e.Dest {
	case cache.DestSRAM:
		h.insertSRAM(block, e.PC, now, e.Write, e.Level, e.Write)
	case cache.DestSTTMRAM:
		h.fillSTT(block, e.PC, now, e.Write, e.Level)
	}
}

// insertSRAM allocates a block in the SRAM bank and handles the resulting
// eviction according to the decision tree: WORO victims go to the L2, other
// victims migrate to the STT-MRAM bank (through the swap buffer when
// available, blocking the cache otherwise).
func (h *HybridL1D) insertSRAM(block, pc uint64, now int64, write bool, level mem.ReadLevel, dirty bool) {
	evicted, line := h.sram.Insert(block, pc, write, level)
	if dirty {
		line.Dirty = true
	}
	h.sramBank.Access(now, true)
	h.stats.SRAMWrites++
	if !evicted.Valid {
		return
	}
	h.judgePrediction(evicted)

	// Decide where the victim goes.
	evictToL2 := false
	if h.pred != nil {
		lvl := h.pred.Predict(evicted.PC)
		if lvl == mem.WORO && !h.pred.Neutral(evicted.PC) {
			evictToL2 = true
		}
	}
	if evictToL2 {
		h.stats.EvictionsToL2++
		if evicted.Dirty {
			h.writeback(evicted, now)
		}
		return
	}
	h.migrateToSTT(evicted, now)
}

// migrateToSTT moves an SRAM victim into the STT-MRAM bank.
func (h *HybridL1D) migrateToSTT(victim cache.Line, now int64) {
	h.stats.MigrationsToSTT++
	if h.nonBlocking() {
		if h.swap.Insert(victim.Block, victim.PC, victim.Dirty) &&
			h.queue.Push(TagOp{Kind: TagOpMigrate, Block: victim.Block, PC: victim.PC, Dirty: victim.Dirty, Level: victim.Level}) {
			return
		}
		// Swap buffer or tag queue full: fall back to a blocking migration.
		h.swap.Remove(victim.Block)
		h.stats.StructuralStalls++
	}
	// Blocking migration (Hybrid, or FUSE under structural back-pressure):
	// the whole cache stalls for the duration of the STT-MRAM write.
	done := h.writeSTT(victim.Block, victim.PC, now, victim.Dirty, victim.Level)
	h.blockedUntil = done
	h.chargeSTTStall(now, done)
}

// fillSTT places a block arriving from the L2 into the STT-MRAM bank.
func (h *HybridL1D) fillSTT(block, pc uint64, now int64, write bool, level mem.ReadLevel) {
	if h.nonBlocking() {
		if h.queue.Push(TagOp{Kind: TagOpFill, Block: block, PC: pc, Dirty: write, Level: level}) {
			// The fill is logically present once queued; park the data in
			// the swap buffer so intervening reads hit. If the swap buffer
			// is full the data waits only in the queue, and the lookup
			// path's tag-queue snoop keeps it visible.
			h.swap.Insert(block, pc, write)
			return
		}
		h.stats.StructuralStalls++
	}
	done := h.writeSTT(block, pc, now, write, level)
	if !h.nonBlocking() {
		h.blockedUntil = done
		h.chargeSTTStall(now, done)
	}
}

// writeSTT performs the actual STT-MRAM array write for a fill or migration,
// handling the eviction of the victim line.
func (h *HybridL1D) writeSTT(block, pc uint64, now int64, dirty bool, level mem.ReadLevel) int64 {
	evicted, line := h.stt.Insert(block, pc, false, level)
	line.Dirty = dirty
	done := h.sttBank.Access(now, true)
	h.stats.STTWrites++
	if h.approx != nil {
		h.approx.Register(block)
	}
	if evicted.Valid {
		h.judgePrediction(evicted)
		if h.approx != nil {
			h.approx.Unregister(evicted.Block)
		}
		h.stats.EvictionsToL2++
		if evicted.Dirty {
			h.writeback(evicted, now)
		}
	}
	return done
}

// dropQueuedOp removes a pending tag-queue operation for the block (used when
// a swap-buffer or tag-queue hit pulls the block back into SRAM before its
// migration retired). It returns the dropped operation, if one was pending.
func (h *HybridL1D) dropQueuedOp(block uint64) (TagOp, bool) {
	if h.queue.Empty() {
		return TagOp{}, false
	}
	var dropped TagOp
	found := false
	kept := h.dropScratch[:0]
	for {
		op, ok := h.queue.Pop()
		if !ok {
			break
		}
		if op.Block != block {
			kept = append(kept, op)
		} else {
			dropped = op
			found = true
		}
	}
	for _, op := range kept {
		h.queue.Push(op)
	}
	h.dropScratch = kept
	return dropped, found
}

// drainQueue retires every pending tag-queue operation immediately (the
// paper's flush-on-misprediction). The STT-MRAM bank time advances past all
// the queued writes, and the cache blocks until it is done.
func (h *HybridL1D) drainQueue(now int64) {
	var last int64 = now
	for {
		op, ok := h.queue.Pop()
		if !ok {
			break
		}
		h.swap.Remove(op.Block)
		last = h.writeSTT(op.Block, op.PC, now, op.Dirty, op.Level)
	}
	if last > now {
		h.blockedUntil = last
		h.chargeSTTStall(now, last)
	}
}

// judgePrediction audits the read-level prediction recorded on an evicted
// line against its observed lifetime (Figure 16).
func (h *HybridL1D) judgePrediction(line cache.Line) {
	if h.pred == nil || !line.Valid {
		return
	}
	h.stats.Accuracy.Record(predictor.Judge(line.Level, line.Level == mem.ReadIntensive, line.Writes))
}

// Tick implements L1D: it retires pending tag-queue operations whenever the
// STT-MRAM bank is free, which is what makes the FUSE configurations
// non-blocking. Each retirement occupies the bank for a full STT-MRAM write,
// so at most one operation drains per write latency; the loop exists so that
// a simulator that fast-forwards over idle cycles still retires the right
// number of operations.
func (h *HybridL1D) Tick(now int64) {
	if h.queue == nil {
		return
	}
	for !h.queue.Empty() && !h.sttBank.Busy(now) {
		op, _ := h.queue.Pop()
		h.swap.Remove(op.Block)
		h.writeSTT(op.Block, op.PC, now, op.Dirty, op.Level)
	}
}

// NextInternalEventAt implements L1D: with tag-queue operations pending, the
// next internal event is the STT-MRAM bank becoming free (which lets Tick
// retire the head operation).
func (h *HybridL1D) NextInternalEventAt(now int64) int64 {
	if h.queue == nil || h.queue.Empty() {
		return -1
	}
	if !h.sttBank.Busy(now) {
		return now
	}
	return h.sttBank.BusyUntil()
}

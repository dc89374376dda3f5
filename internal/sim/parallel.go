package sim

// Conservative-parallel execution of one simulation (ROADMAP item 2).
//
// The sequential sparse engine already touches only the SMs that can make
// progress at each cycle, but it still interleaves them on one goroutine. The
// parallel engine exploits the latency the memory system guarantees: once a
// request leaves an SM, no response can come back for at least
//
//	rtMin = zeroLoad(request) + L2 bank latency + zeroLoad(response)
//
// cycles. SM state is strictly private between memory interactions, so every
// SM can be advanced independently — on its own goroutine — up to a shared
// conservative horizon with no cross-SM communication at all, provided the
// horizon H satisfies two bounds:
//
//  1. No pending memory-side work can deliver a fill to any SM before H
//     (computed by scanning the event heap and the armed controller tick).
//  2. No request issued by an SM *during* the epoch can be answered before H
//     (guaranteed by H <= t0 + rtMin, where t0 is the epoch start).
//
// Within the epoch each worker advances its SM exactly as the sequential
// engine would (same catch-up charging, same Cycle calls at the same cycles)
// and logs the outgoing requests it produces with their drain cycles. The
// epoch barrier is the serial commit that follows: drain records are merged
// in (cycle, SM) order — the exact order the sequential engine's per-step
// drainOutgoing would have produced — and re-played against the shared NoC,
// L2 and event heap, consuming sequence numbers in exactly the sequential
// order. Every counter, figure table and store key is therefore byte-identical
// to the sequential engine, for any worker count. TestParallelEngineMatches-
// Sequential pins this across workers 1/2/4/8, and the lookahead-violation
// panic in handleEvent is the always-on canary.

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fuse/internal/mem"
)

// SetWorkers selects how many goroutines RunContext may use to advance SMs
// inside one simulation. n <= 1 selects the sequential sparse engine. The
// worker count is an execution-resource knob only: results are byte-identical
// for every value (which is why it lives outside Options and never enters a
// result-store key). Values beyond the machine's core count are allowed —
// sizing workers to the hardware is the caller's policy (see engine.Config).
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the worker count selected with SetWorkers (1 = sequential).
func (s *Simulator) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// epochPart is one SM's participation in an epoch: where it starts, the
// requests it produced (with their drain cycles), and how it left the epoch.
type epochPart struct {
	sm     int
	wakeAt int64

	reqs []mem.Request
	recs []drainSpan

	// next is the SM's first self-event at or after the horizon, or — when
	// finished is set — the cycle at which the SM retired its last warp.
	next     int64
	slept    bool
	finished bool
}

// drainSpan records that one SM produced reqs[off:off+n] at the given cycle.
type drainSpan struct {
	cycle  int64
	off, n int
}

// commitRec is one drain span in the epoch's global commit order.
type commitRec struct {
	cycle int64
	sm    int
	part  int
	off   int
	n     int
}

// epochTask hands one epoch's advance phase to the helper goroutines: they
// pull participant indices from the shared counter until it runs dry.
type epochTask struct {
	parts   []epochPart
	horizon int64
	next    *atomic.Int64
	wg      *sync.WaitGroup
}

// runParallel is the conservative-parallel main loop: epochs of independent
// SM advancement separated by serial commits, falling back to single sparse
// steps whenever the lookahead window is degenerate. The helper goroutines
// are spawned once per run and parked on the work channel between epochs, so
// the per-epoch dispatch cost is a few channel operations, not goroutine
// creation.
func (s *Simulator) runParallel(ctx context.Context) (Result, error) {
	opts := s.opts
	// rtMin: the minimum request round trip through an idle machine.
	// Contention, port serialisation, MSHR retries and DRAM time only ever
	// make a response later.
	rtMin := s.net.ZeroLoadLatency(opts.RequestBytes) +
		s.l2.MinResponseLatency() +
		s.net.ZeroLoadLatency(mem.BlockSize)
	zllResp := s.net.ZeroLoadLatency(mem.BlockSize)

	work := make(chan epochTask)
	defer close(work)
	for w := 0; w < s.workers-1; w++ {
		go func() {
			for task := range work {
				for {
					k := int(task.next.Add(1)) - 1
					if k >= len(task.parts) {
						break
					}
					s.advancePart(&task.parts[k], task.horizon)
				}
				task.wg.Done()
			}
		}()
	}

	var steps uint
	for s.doneSMs < len(s.sms) && s.now < opts.MaxCycles {
		if steps++; steps&0xFF == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		t := s.nextTime()
		if t < 0 || t >= opts.MaxCycles {
			s.now = opts.MaxCycles
			break
		}
		if t > s.now {
			s.now = t
		}
		if s.wake.minAt() == t && s.runEpoch(t, rtMin, zllResp, work) {
			continue
		}
		s.stepSparse()
	}
	s.settle()
	return s.collect(), nil
}

// epochHorizon computes the conservative horizon H for an epoch starting at
// t0: the earliest cycle at which any SM could possibly observe a memory
// response. Every bound errs early, never late:
//
//   - an in-flight response event arrives exactly at its scheduled cycle;
//   - a request event still travelling to the L2 cannot be answered before
//     its arrival plus the bank's minimum response latency plus the
//     zero-load response flight;
//   - the armed controller tick retires DRAM work no earlier than the tick,
//     so its fills reach an SM no earlier than tick + response flight;
//   - a request issued during the epoch (at >= t0) cannot round-trip before
//     t0 + rtMin.
func (s *Simulator) epochHorizon(t0, rtMin, zllResp int64) int64 {
	h := s.opts.MaxCycles
	if b := t0 + rtMin; b < h {
		h = b
	}
	if s.memTickAt >= 0 {
		if b := s.memTickAt + zllResp; b < h {
			h = b
		}
	}
	l2lat := s.l2.MinResponseLatency()
	for _, k := range s.events.keys {
		var b int64
		if s.events.slab[k.slot].kind == evRespAtSM {
			b = k.at
		} else {
			b = k.at + l2lat + zllResp
		}
		if b < h {
			h = b
		}
	}
	return h
}

// runEpoch attempts one epoch at t0 (== s.now == the earliest SM wake). It
// returns false when the lookahead window is degenerate — a horizon of one
// cycle or no waking SM — in which case the caller takes a sequential sparse
// step instead.
func (s *Simulator) runEpoch(t0, rtMin, zllResp int64, work chan epochTask) bool {
	horizon := s.epochHorizon(t0, rtMin, zllResp)
	if horizon <= t0+1 {
		return false
	}

	// Participants: every SM that would wake before the horizon. They are
	// removed from the wake heap for the duration of the epoch.
	s.wake.popDue(horizon-1, s.due)
	n := 0
	for _, word := range s.due {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return false
	}
	for len(s.parts) < n {
		s.parts = append(s.parts, epochPart{})
	}
	parts := s.parts[:n]
	k := 0
	forEachSM(s.due, func(id int) {
		p := &parts[k]
		k++
		p.sm = id
		p.wakeAt = s.wake.at[id]
		p.reqs = p.reqs[:0]
		p.recs = p.recs[:0]
		p.next = 0
		p.slept = false
		p.finished = false
	})

	// Advance phase: strictly SM-local work, safe to run on workers. Each
	// worker touches only its participant's SM, L1D, instruction source,
	// chargedTo slot and log — never the NoC, L2, event heap or clock. The
	// parked helpers are woken with one channel send each; this goroutine
	// works the counter alongside them and then waits for the stragglers.
	if helpers := min(s.workers, len(parts)) - 1; helpers > 0 {
		s.epochNext.Store(0)
		task := epochTask{parts: parts, horizon: horizon, next: &s.epochNext, wg: &s.epochWG}
		s.epochWG.Add(helpers)
		for w := 0; w < helpers; w++ {
			work <- task
		}
		for {
			k := int(s.epochNext.Add(1)) - 1
			if k >= len(parts) {
				break
			}
			s.advancePart(&parts[k], horizon)
		}
		s.epochWG.Wait()
	} else {
		for k := range parts {
			s.advancePart(&parts[k], horizon)
		}
	}

	s.commitEpoch(parts)
	return true
}

// advancePart advances one SM from its wake cycle up to (excluding) the
// horizon, exactly as the sequential engine would have: idle gaps are charged
// lazily, the SM is cycled at each of its self-event cycles, and the outgoing
// requests of each cycle are logged with their drain cycle.
//
// This is the parallel engine's worker-phase root: it runs concurrently on
// worker goroutines, so it and everything it calls — across every package it
// reaches (gpu, core, cache, cbf, memtech, predictor, trace) and through
// every interface (trace.Source, core.L1D, …) — may touch only the
// participant's own state: its SM, its chargedTo slot, its epochPart, and
// the //fuselint:smowned types each SM exclusively owns for the epoch. The
// //fuselint:serialonly fields, package-level variables and peer SMs' state
// are off limits. fuselint's phasesafe analyzer checks this whole-program:
// it walks the cross-package call graph from this root (resolving interface
// calls to every in-repo implementation) and rejects any reachable
// violation, so the guarantee is verified, not assumed.
//
//fuselint:workerphase
//fuselint:noalloc
func (s *Simulator) advancePart(p *epochPart, horizon int64) {
	sm := s.sms[p.sm]
	t := p.wakeAt
	for t < horizon {
		s.catchUpTo(p.sm, t)
		sm.Cycle(t)
		s.chargedTo[p.sm] = t + 1
		off := len(p.reqs)
		for {
			req, ok := sm.PopOutgoing()
			if !ok {
				break
			}
			p.reqs = append(p.reqs, req)
		}
		if n := len(p.reqs) - off; n > 0 {
			p.recs = append(p.recs, drainSpan{cycle: t, off: off, n: n})
		}
		if sm.Done() {
			p.finished = true
			p.next = t
			return
		}
		next := sm.NextSelfEventAt(t + 1)
		if next < 0 {
			// Every live warp is blocked on an in-flight fill: sleep until
			// a fill delivery re-inserts the SM into the wake heap.
			p.slept = true
			return
		}
		t = next
	}
	p.next = t
}

// commitEpoch is the serial epoch barrier: it re-plays the logged drains
// against the shared machine in exactly the order the sequential engine would
// have produced them. Between two drain cycles only request events and
// controller ticks can be due (responses are excluded by the horizon), and
// their handlers depend only on their own timestamps — so processing them
// batched at the next drain cycle consumes sequence numbers in the identical
// order to sequential execution.
//
//fuselint:noalloc
func (s *Simulator) commitEpoch(parts []epochPart) {
	s.commitRecs = s.commitRecs[:0]
	for k := range parts {
		p := &parts[k]
		for _, r := range p.recs {
			s.commitRecs = append(s.commitRecs, commitRec{
				cycle: r.cycle, sm: p.sm, part: k, off: r.off, n: r.n,
			})
		}
	}
	slices.SortFunc(s.commitRecs, func(a, b commitRec) int {
		if a.cycle != b.cycle {
			if a.cycle < b.cycle {
				return -1
			}
			return 1
		}
		return a.sm - b.sm // one record per (cycle, SM): never equal
	})

	cur := int64(-1)
	for _, r := range s.commitRecs {
		if r.cycle != cur {
			cur = r.cycle
			s.now = cur
			s.processEvents()
		}
		p := &parts[r.part]
		sm := s.sms[r.sm]
		for _, req := range p.reqs[r.off : r.off+r.n] {
			// Mirrors drainOutgoing's per-request body at s.now == r.cycle.
			bank := s.l2.BankFor(req.BlockAddr())
			bytes := s.opts.RequestBytes
			if req.Kind == mem.Write {
				bytes = mem.BlockSize
			}
			if req.Issue == 0 {
				req.Issue = s.now
			}
			req.SM = sm.ID
			arrive := s.net.SendRequest(sm.ID, bank, bytes, s.now)
			s.schedule(event{at: arrive, kind: evReqAtL2, sm: sm.ID, bank: bank, req: req})
		}
	}

	// Re-insert the survivors. Finished SMs leave the simulation; sleeping
	// SMs stay out of the wake heap until a fill arrives.
	finishMax := int64(-1)
	for k := range parts {
		p := &parts[k]
		switch {
		case p.finished:
			s.doneSMs++
			if p.next > finishMax {
				finishMax = p.next
			}
		case !p.slept:
			s.wake.update(p.sm, p.next)
		}
	}

	// When the epoch retired the last live SM, the sequential engine would
	// have kept stepping — and processing due events — up to the cycle of
	// the final retirement, then stopped with the clock one past it. Replay
	// that tail before the main loop sees doneSMs and exits: events due at
	// or before the last retirement are delivered (they can only be request
	// events and controller ticks, whose handlers use their own timestamps),
	// and anything later is dropped exactly as sequential would drop it.
	if s.doneSMs == len(s.sms) && finishMax >= 0 {
		if finishMax > s.now {
			s.now = finishMax
		}
		s.processEvents()
		s.now = finishMax + 1
	}
}

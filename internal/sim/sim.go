// Package sim wires the whole GPU together: SMs with their private FUSE (or
// baseline) L1D caches, the butterfly interconnect, the shared L2 banks and
// the GDDR5 DRAM, and it produces the aggregate metrics every paper figure is
// built from (IPC, L1D miss rate, stalls, outgoing traffic, off-chip time,
// energy inputs).
//
// The cycle engine is sparse: a table of per-SM wake times plus a calendar
// queue of memory-side events, so each step touches only the SMs that can
// actually make progress at that cycle. Each SM keeps its own clock and
// ledger: the engine calls gpu.SM.CatchUp before it cycles an SM, delivers
// it a fill or ends the run, and the SM charges the cycles it slept through
// to the same causes cycle-by-cycle execution would have, which makes the
// sparse engine a pure speedup: RunReference — the
// step-every-cycle path — must produce bit-identical results, and the engine
// equivalence test pins that.
//
// Back-pressure is event-driven too. An SM whose access the L1D rejected
// sleeps until the rejection can change — the L1D's stall hold, its next
// internal event or a fill. When it wakes, the first cycle it skipped
// re-presents the rejected access to the L1D and the rest of the held stall
// is charged in one step, moving every counter polled retries would have.
// Requests the L2 NACKs back to back for the same retry cycle share one
// retry-batch event instead of one queued event each, and a member whose
// block's L2 set has not changed since its NACK is charged its next NACK
// without a second look at the bank: rejections whose outcome is already
// known are charged, not re-executed.
//
// The invariants are held by tests: the pinned result digests and
// TestSimulationHasNoHiddenInputs (no clock, global randomness or
// environment read in the simulator's import closure) for determinism, the
// store-key coverage walk over Options (internal/store), the per-point
// allocation budget beside the pinned result digests, the store's round
// trips and the per-SM cycle ledger.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"fuse/internal/config"
	"fuse/internal/core"
	"fuse/internal/dram"
	"fuse/internal/gpu"
	"fuse/internal/l2"
	"fuse/internal/mem"
	"fuse/internal/noc"
	"fuse/internal/trace"
)

// Options controls a single simulation run.
//
// Options is serialised verbatim into the content-addressed result-store key
// (store.Key), with WithDefaults applied, so every field must change the key.
// TestKeyDeterministicAndSensitive (internal/store) perturbs each field in
// turn and fails if one does not.
type Options struct {
	// InstructionsPerWarp is the per-warp instruction budget.
	InstructionsPerWarp uint64
	// MaxCycles aborts the run if it has not finished by then (0 = default).
	MaxCycles int64
	// Seed seeds the workload generator.
	Seed uint64
	// SMOverride, when positive, simulates only this many SMs regardless of
	// the GPU configuration. The per-SM behaviour is unchanged; memory-side
	// contention scales accordingly. Used to keep the experiment harness
	// fast; the cmd tools run the full SM count.
	SMOverride int
	// RequestBytes is the size of a request packet on the NoC.
	RequestBytes int
}

// WithDefaults returns the options with every unset field replaced by its
// default. The simulator applies it on construction; the result store uses it
// to canonicalise cache keys, so a zero Options and an explicitly defaulted
// one address the same stored result.
func (o Options) WithDefaults() Options {
	if o.InstructionsPerWarp == 0 {
		o.InstructionsPerWarp = 1000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 4_000_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.RequestBytes == 0 {
		o.RequestBytes = 32
	}
	return o
}

// event is a memory-side event: a request arriving at an L2 bank, a batch
// of NACKed requests retrying there, or a response arriving back at an SM.
// (The memory controller's own scheduling points are tracked outside the
// queue — see armMemTick.)
type event struct {
	at   int64
	seq  uint64
	kind eventKind
	// batch is an evRetryBatch's first member in the retry slab.
	batch int32
	// next is the slot of the next event in the event's calendar bucket
	// (-1 ends the bucket).
	next  int32
	sm    int
	bank  int
	req   mem.Request
	block uint64
}

type eventKind uint8

const (
	evReqAtL2 eventKind = iota
	evRespAtSM
	evRetryBatch
)

// before reports whether the event comes before the (at, seq) pair in the
// deterministic event order: time first, scheduling sequence number as the
// tie-break.
func (e *event) before(at int64, seq uint64) bool {
	if e.at != at {
		return e.at < at
	}
	return e.seq < seq
}

// calendarWidth is the event calendar's initial ring width in cycles. No
// memory-side event is scheduled more than about a hundred cycles ahead, so
// the ring of a simulation rarely grows.
const calendarWidth = 128

// eventQueue is a calendar queue (Brown, CACM 1988) of events ordered by
// (at, seq): one FIFO bucket per cycle in a power-of-two ring indexed by the
// event time modulo the ring width, with a bitmap of the non-empty buckets.
// The events stay in a slab whose slots are recycled through a free list,
// and each bucket is a list threaded through the slab's next slots, so a
// push copies one event and a pop copies none: it hands out the event's
// slot, which the handler reads in place and releases once it no longer
// needs the event. All buffers are reused for the whole run.
//
// Nothing may be scheduled before the last popped time; push panics if it
// is. Every pending event then lies less than one ring width after that
// time, so the first non-empty bucket from that time's bucket on holds the
// earliest events. An event that lands beyond the ring doubles it. Events
// join a bucket in seq order — a push carries the newest sequence number —
// except a re-push under an older one (the rest of a retry batch, see
// retryBatch), which is inserted at its seq position.
type eventQueue struct {
	slab []event
	free []int32
	// head and tail are each bucket's first and last slot, valid while the
	// bucket's bit in busy is set.
	head, tail []int32
	busy       []uint64
	last       int64 // time of the last pop
	n          int
}

func (q *eventQueue) len() int { return q.n }

// bucket returns the bucket of the earliest pending event; the queue must
// not be empty.
func (q *eventQueue) bucket() int {
	start := int(q.last) & (len(q.head) - 1)
	w := start >> 6
	word := q.busy[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		if w++; w == len(q.busy) {
			w = 0
		}
		word = q.busy[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// peek returns the earliest event; the queue must not be empty.
func (q *eventQueue) peek() *event { return &q.slab[q.head[q.bucket()]] }

func (q *eventQueue) push(e event) {
	if e.at < q.last {
		panic(fmt.Sprintf("sim: event scheduled at cycle %d, before the last popped cycle %d", e.at, q.last))
	}
	if e.at-q.last >= int64(len(q.head)) {
		q.grow(e.at)
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = e
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	q.n++
	q.slab[slot].next = -1
	b := int(e.at) & (len(q.head) - 1)
	if bit := uint64(1) << (b & 63); q.busy[b>>6]&bit == 0 {
		q.busy[b>>6] |= bit
		q.head[b], q.tail[b] = slot, slot
		return
	}
	if t := q.tail[b]; q.slab[t].seq < e.seq {
		q.slab[t].next = slot
		q.tail[b] = slot
		return
	}
	p := &q.head[b]
	for q.slab[*p].seq < e.seq {
		p = &q.slab[*p].next
	}
	q.slab[slot].next = *p
	*p = slot
}

// grow doubles the ring until an event at cycle at fits in it, moving each
// bucket whole: a bucket holds a single cycle's events.
func (q *eventQueue) grow(at int64) {
	w := max(calendarWidth, len(q.head))
	for at-q.last >= int64(w) {
		w *= 2
	}
	head, tail, busy := make([]int32, w), make([]int32, w), make([]uint64, w>>6)
	for k, word := range q.busy {
		for ; word != 0; word &= word - 1 {
			b := k<<6 | bits.TrailingZeros64(word)
			nb := int(q.slab[q.head[b]].at) & (w - 1)
			head[nb], tail[nb] = q.head[b], q.tail[b]
			busy[nb>>6] |= 1 << (nb & 63)
		}
	}
	q.head, q.tail, q.busy = head, tail, busy
}

// pop removes the earliest event and returns its slab slot, which stays
// reserved until release.
func (q *eventQueue) pop() int32 {
	b := q.bucket()
	slot := q.head[b]
	e := &q.slab[slot]
	if e.next < 0 {
		q.busy[b>>6] &^= 1 << (b & 63)
	} else {
		q.head[b] = e.next
	}
	q.last = e.at
	q.n--
	return slot
}

// release returns a popped event's slot to the free list.
func (q *eventQueue) release(slot int32) { q.free = append(q.free, slot) }

// smWakeTable holds the per-SM wake cycles: the earliest cycle at which each
// live SM can make progress on its own (ready warp, timed warp wake-up, L1D
// internal machinery). SMs blocked purely on in-flight fills are absent from
// the table — the fill delivery re-inserts them — and done SMs never return.
// The table keeps its minimum: update lowers it, and only popDue and the
// removal or postponement of the SM holding it rescan the table.
type smWakeTable struct {
	at  []int64 // at[sm] = wake cycle, absent when math.MaxInt64
	min int64   // minimum of at, math.MaxInt64 when the table is empty
}

func (w *smWakeTable) init(n int) {
	w.at = make([]int64, n)
	for i := range w.at {
		w.at[i] = math.MaxInt64
	}
	w.min = math.MaxInt64
}

// minAt returns the earliest wake cycle (-1 when the table is empty).
func (w *smWakeTable) minAt() int64 {
	if w.min == math.MaxInt64 {
		return -1
	}
	return w.min
}

// rescan recomputes the minimum.
func (w *smWakeTable) rescan() {
	w.min = math.MaxInt64
	for _, at := range w.at {
		w.min = min(w.min, at)
	}
}

// update inserts the SM at the given wake cycle, or moves it if present.
func (w *smWakeTable) update(sm int, at int64) {
	old := w.at[sm]
	w.at[sm] = at
	if at <= w.min {
		w.min = at
	} else if old == w.min {
		w.rescan()
	}
}

// remove takes the SM out of the table (no-op when absent).
func (w *smWakeTable) remove(sm int) {
	old := w.at[sm]
	w.at[sm] = math.MaxInt64
	if old == w.min && old != math.MaxInt64 {
		w.rescan()
	}
}

// popDue removes from the table every SM whose wake cycle is <= t and marks
// it in the due set, recomputing the minimum in the same scan.
func (w *smWakeTable) popDue(t int64, due []uint64) {
	if w.min > t {
		return
	}
	w.min = math.MaxInt64
	for sm, at := range w.at {
		if at <= t {
			w.at[sm] = math.MaxInt64
			due[sm>>6] |= 1 << (sm & 63)
		} else {
			w.min = min(w.min, at)
		}
	}
}

// smSetWords returns the number of words a set of n SMs takes.
func smSetWords(n int) int { return (n + 63) >> 6 }

// forEachSM calls fn for every SM in the set, in SM order, emptying the set
// as it goes. fn must not add SMs to the set.
func forEachSM(set []uint64, fn func(i int)) {
	for k, word := range set {
		set[k] = 0
		for word != 0 {
			fn(k<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// retryMember is one NACKed request waiting in a retry batch: the
// arguments of the evReqAtL2 event it would otherwise have been and the
// version and set its latest NACK carried (see l2.L2.NackHolds), linked to
// the next member of its batch (-1 ends the batch).
type retryMember struct {
	req  mem.Request
	sm   int
	bank int
	ver  uint64
	set  int32
	next int32
}

// retrySlab holds the members of every pending retry batch in one slab whose
// slots are recycled through a free list threaded through next, so a run
// allocates member slots only up to its peak backlog.
type retrySlab struct {
	members  []retryMember
	freeHead int32
	// The open batch is the one a request NACKed now may join: the batch
	// most recently scheduled, at openAt under sequence number openSeq,
	// whose last member is openTail (-1 when no batch is open).
	openAt   int64
	openSeq  uint64
	openTail int32
}

// add stores a member and returns its slot.
func (r *retrySlab) add(req mem.Request, sm, bank int, nack l2.Result) int32 {
	i := r.freeHead
	if i >= 0 {
		r.freeHead = r.members[i].next
	} else {
		i = int32(len(r.members))
		r.members = append(r.members, retryMember{})
	}
	m := &r.members[i]
	m.req, m.sm, m.bank, m.ver, m.set, m.next = req, sm, bank, nack.Version, int32(nack.Set), -1
	return i
}

// free returns slot i to the free list.
func (r *retrySlab) free(i int32) {
	r.members[i].next = r.freeHead
	r.freeHead = i
}

// staleTick is a controller wake-up that was abandoned by an earlier re-arm;
// its sequence position still matters if a later re-arm lands on its time.
type staleTick struct {
	at  int64
	seq uint64
}

// Simulator is one configured GPU plus one workload.
type Simulator struct {
	gpuCfg   config.GPUConfig
	workload trace.Workload
	opts     Options

	sms  []*gpu.SM
	net  *noc.Network
	l2   *l2.L2
	dram *dram.DRAM

	events   eventQueue
	eventSeq uint64
	retries  retrySlab
	now      int64
	// memTickAt/memTickSeq are the armed memory-controller wake-up: the
	// earliest cycle the controller can make progress, ordered against the
	// event queue by (at, seq). -1 when the controller is idle.
	memTickAt  int64
	memTickSeq uint64
	staleTicks []staleTick

	// Sparse-engine state: per-SM wake table, the set of SMs drainOutgoing
	// pulls from and the set of SMs due this step (bit i of word i/64 stands
	// for SM i; iterating a set visits the SMs in order, which keeps issue
	// and drain deterministic).
	wake    smWakeTable
	doneSMs int
	dirty   []uint64
	due     []uint64

	// Latency decomposition of completed fills (Figure 1).
	nocCycles int64
	memCycles int64
	fills     uint64
}

// New builds a simulator for the given GPU configuration and workload
// descriptor. Synthetic profiles wrap as trace.Synthetic(profile); phased
// workloads plug in the same way — the simulator only sees the per-SM
// instruction Sources the workload constructs.
func New(gpuCfg config.GPUConfig, workload trace.Workload, opts Options) (*Simulator, error) {
	if err := gpuCfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if workload == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	if err := workload.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	opts = opts.WithDefaults()
	s := &Simulator{gpuCfg: gpuCfg, workload: workload, opts: opts}

	smCount := gpuCfg.SMs
	if opts.SMOverride > 0 && opts.SMOverride < smCount {
		smCount = opts.SMOverride
	}
	// Weak scaling: when only a subset of the SMs is simulated, the shared
	// memory side (L2 banks, DRAM channels, interconnect endpoints) is
	// scaled down proportionally so that the per-SM bandwidth pressure —
	// which is what makes these workloads off-chip bound — is preserved.
	l2Banks := gpuCfg.L2Banks
	l2KB := gpuCfg.L2KBTotal
	channels := gpuCfg.DRAMChannels
	if smCount < gpuCfg.SMs {
		scale := float64(smCount) / float64(gpuCfg.SMs)
		channels = max(1, int(float64(gpuCfg.DRAMChannels)*scale+0.5))
		banksPerChannel := max(1, gpuCfg.L2Banks/gpuCfg.DRAMChannels)
		l2Banks = channels * banksPerChannel
		l2KB = max(l2Banks, int(float64(gpuCfg.L2KBTotal)*scale+0.5))
	}

	if _, err := dram.BackendByName(gpuCfg.MemBackend); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.dram = dram.New(dram.Config{
		Channels:        channels,
		BanksPerChannel: gpuCfg.DRAMBanksPerChannel,
		RowBytes:        gpuCfg.DRAMRowBytes,
		TCL:             gpuCfg.TCL,
		TRCD:            gpuCfg.TRCD,
		TRP:             gpuCfg.TRP,
		TRAS:            gpuCfg.TRAS,
		BurstCycles:     gpuCfg.DRAMBurstCycles,
		QueueDepth:      gpuCfg.DRAMQueueDepth,
		Backend:         gpuCfg.MemBackend,
	})
	s.l2 = l2.New(l2.Config{
		Banks:         l2Banks,
		TotalKB:       l2KB,
		Ways:          gpuCfg.L2Ways,
		LatencyCycles: gpuCfg.L2LatencyCycles,
	}, s.dram)
	s.net = noc.New(noc.Config{
		SMNodes:    smCount,
		MemNodes:   l2Banks,
		HopLatency: gpuCfg.NoCLatencyPerHop,
		FlitBytes:  gpuCfg.NoCFlitBytes,
	})

	s.sms = make([]*gpu.SM, smCount)
	s.dirty = make([]uint64, smSetWords(smCount))
	s.due = make([]uint64, smSetWords(smCount))
	for i := range s.sms {
		l1d, err := core.New(gpuCfg.L1D)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		source, err := workload.NewSource(i, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.sms[i] = gpu.NewSM(i, gpuCfg.WarpsPerSM, opts.InstructionsPerWarp, source, l1d)
	}
	s.memTickAt = -1
	s.retries.freeHead, s.retries.openTail = -1, -1 // no free slot, no open batch
	s.wake.init(smCount)
	for i := range s.sms {
		s.wake.update(i, 0) // every SM starts with ready warps at cycle 0
	}
	return s, nil
}

// SMs exposes the simulated SMs (for inspection by examples and tests).
func (s *Simulator) SMs() []*gpu.SM { return s.sms }

// L2 exposes the shared L2 cache.
func (s *Simulator) L2() *l2.L2 { return s.l2 }

// DRAM exposes the DRAM model.
func (s *Simulator) DRAM() *dram.DRAM { return s.dram }

// Network exposes the interconnect.
func (s *Simulator) Network() *noc.Network { return s.net }

// Now returns the current simulation cycle.
func (s *Simulator) Now() int64 { return s.now }

// schedule pushes an event onto the queue.
func (s *Simulator) schedule(e event) {
	s.eventSeq++
	e.seq = s.eventSeq
	s.events.push(e)
}

// armMemTick keeps the controller wake-up armed at the memory side's next
// event time (but never before `now`). The tick lives outside the event
// queue; re-arming earlier abandons the old tick instead of leaving a stale
// queued entry. An abandoned tick's (time, seq) pair is remembered, because
// when a later re-arm lands exactly on an abandoned time the tick must fire
// at the abandoned — earlier — sequence position: that is where the previous
// in-queue scheme's entry would have fired, and same-cycle interleaving
// against request events is part of the engine's deterministic ordering.
func (s *Simulator) armMemTick(now int64) {
	next := s.l2.NextEventAt()
	if next < 0 {
		return
	}
	if next < now {
		next = now
	}
	if s.memTickAt >= 0 && s.memTickAt <= next {
		return
	}
	if s.memTickAt >= 0 {
		s.staleTicks = append(s.staleTicks, staleTick{at: s.memTickAt, seq: s.memTickSeq})
	}
	s.eventSeq++ // same sequence consumption as scheduling a queued event
	seq := s.eventSeq
	kept := s.staleTicks[:0]
	for _, t := range s.staleTicks {
		switch {
		case t.at == next:
			if t.seq < seq {
				seq = t.seq
			}
		case t.at >= now:
			kept = append(kept, t)
		}
	}
	s.staleTicks = kept
	s.memTickAt, s.memTickSeq = next, seq
}

// fireMemTick advances the memory controller to the armed tick time and
// delivers the completed fills, then re-arms.
func (s *Simulator) fireMemTick() {
	at := s.memTickAt
	s.memTickAt = -1
	for _, fill := range s.l2.Advance(at) {
		for _, w := range fill.Waiters {
			s.respond(fill.Bank, w.Req.SM, fill.Block, w.Req.Issue, w.Arrive, w.DoneAt(fill.Done))
		}
	}
	s.armMemTick(at)
}

// respond schedules the NoC response of one completed read and charges the
// fill-latency decomposition: the request spent arriveAtL2..done on the
// memory side and the rest of its life on the interconnect.
func (s *Simulator) respond(bank, sm int, block uint64, issue, arriveAtL2, done int64) {
	arrive := s.net.SendResponse(bank, sm, mem.BlockSize, done)
	s.nocCycles += (arriveAtL2 - issue) + (arrive - done)
	s.memCycles += done - arriveAtL2
	s.schedule(event{at: arrive, kind: evRespAtSM, sm: sm, block: block})
}

// processEvents handles, in (at, seq) order, every event and controller tick
// due at or before the current cycle.
func (s *Simulator) processEvents() {
	for {
		tickDue := s.memTickAt >= 0 && s.memTickAt <= s.now
		if s.events.len() > 0 {
			if e := s.events.peek(); e.at <= s.now && (!tickDue || e.before(s.memTickAt, s.memTickSeq)) {
				s.handleEvent(s.events.pop())
				continue
			}
		}
		if tickDue {
			s.fireMemTick()
			continue
		}
		return
	}
}

// handleEvent dispatches the popped event in the given slab slot, reading
// it in place, and releases the slot once the event is no longer needed: a
// request is released only after it has been presented, because presenting
// it can schedule a response that would otherwise reuse the slot.
func (s *Simulator) handleEvent(slot int32) {
	e := &s.events.slab[slot]
	switch e.kind {
	case evReqAtL2:
		s.reqAtL2(e.at, e.sm, e.bank, &e.req)
		s.events.release(slot)
	case evRetryBatch:
		at, seq, batch := e.at, e.seq, e.batch
		s.events.release(slot)
		s.retryBatch(at, seq, batch)
	case evRespAtSM:
		at, i, block := e.at, e.sm, e.block
		s.events.release(slot)
		s.fills++
		// Events are delivered at exactly their due cycle, before any SM
		// cycles at it, so CatchUp panics if the SM was already cycled past
		// the fill's arrival. It charges the cycles the SM slept through
		// before the fill changes its outstanding-fill count. A done SM still
		// owns its cache: the fill lands (and may evict a dirty victim that
		// must be drained), but costs no SM cycles and wakes nothing.
		sm := s.sms[i]
		sm.CatchUp(at)
		sm.DeliverFill(block, at)
		if !sm.Done() {
			s.wake.update(i, at)
		}
		s.markDirty(i)
	}
}

// reqAtL2 presents a request to its L2 bank at cycle at.
func (s *Simulator) reqAtL2(at int64, sm, bank int, req *mem.Request) {
	if res := s.present(at, sm, bank, req); res.Outcome == l2.OutcomeBlocked {
		s.queueRetry(sm, bank, *req, res)
	}
	s.armMemTick(at)
}

// present hands a request to its L2 bank at cycle at and handles the
// outcome, short of queueing a NACKed request for its retry.
func (s *Simulator) present(at int64, sm, bank int, req *mem.Request) l2.Result {
	res := s.l2.Access(*req, at)
	switch res.Outcome {
	case l2.OutcomeHit:
		if req.Kind != mem.Write { // write-backs need no response
			s.respond(bank, sm, req.BlockAddr(), req.Issue, at, res.Done)
		}
	case l2.OutcomeMiss, l2.OutcomeMerged:
		// Writes are absorbed; read data arrives with the fill.
	case l2.OutcomeBlocked:
		s.chargeNack(at, res.RetryAt)
	}
	return res
}

// chargeNack accounts a NACK at cycle at whose request retries at retry.
// The wait is memory-side time, but the retry makes the waiter's L2 arrival
// time the *last* attempt, which respond() would charge to the NoC share —
// move it to the memory share here so the Figure 1 decomposition stays
// faithful.
func (s *Simulator) chargeNack(at, retry int64) {
	s.memCycles += retry - at
	s.nocCycles -= retry - at
}

// queueRetry queues a request for another attempt at the retry time of its
// NACK.
func (s *Simulator) queueRetry(sm, bank int, req mem.Request, nack l2.Result) {
	s.requeue(nack.RetryAt, s.retries.add(req, sm, bank, nack))
}

// requeue links the member in slot m into a retry batch at cycle at.
// Requests NACKed back to back for the same retry cycle share one queued
// event: a member joins the open batch when that batch retries at the same
// cycle and no sequence number has been consumed since it was scheduled or
// last joined. As separate events the members would have held consecutive
// sequence numbers, so nothing could have been ordered between them.
func (s *Simulator) requeue(at int64, m int32) {
	r := &s.retries
	r.members[m].next = -1
	if r.openTail >= 0 && r.openAt == at && r.openSeq == s.eventSeq {
		r.members[r.openTail].next = m
		r.openTail = m
		return
	}
	s.schedule(event{at: at, kind: evRetryBatch, batch: m})
	r.openAt, r.openSeq, r.openTail = at, s.eventSeq, m
}

// retryBatch replays the members of a retry batch, popped at (at, seq), in
// order through the request path. A member whose NACK still holds — its
// block's set has not changed since, and a full MSHR file is still full — is
// NACKed again without a second look at the bank (l2.L2.NackHolds); the rest
// are presented as new arrivals. A member NACKed again keeps its slot and is
// relinked into the batch of its next retry.
//
// A member NACKed again changes nothing on the memory side, so it needs no
// controller re-arm, and every member of a run of them retries at the same
// cycle: the controller's next event moves only when a member goes through
// L2.Access. The run shares one retry time and is charged at once when it
// ends.
//
// A presented member's handling can re-arm the controller tick at this
// cycle under an inherited sequence number below the batch's (see
// armMemTick); the tick then fires before the remaining members, which go
// back on the queue under the batch's own (at, seq).
func (s *Simulator) retryBatch(at int64, seq uint64, first int32) {
	r := &s.retries
	if r.openTail >= 0 && r.openSeq == seq {
		r.openTail = -1 // popped: nothing may join it any more
	}
	var run uint64    // members NACKed again since the last presented one
	retry := int64(0) // their retry time, valid while run > 0
	for i := first; i >= 0; {
		m := &r.members[i]
		next := m.next
		if s.l2.NackHolds(m.bank, int(m.set), m.ver) {
			if run == 0 {
				retry = s.l2.RetryAt(at)
			}
			run++
			s.requeue(retry, i)
			i = next
			continue
		}
		s.chargeRenacks(at, retry, run)
		run = 0
		if res := s.present(at, m.sm, m.bank, &m.req); res.Outcome == l2.OutcomeBlocked {
			m.ver, m.set = res.Version, int32(res.Set)
			s.requeue(res.RetryAt, i)
		} else {
			r.free(i)
		}
		s.armMemTick(at)
		i = next
		if i >= 0 && s.memTickAt == at && s.memTickSeq < seq {
			s.events.push(event{at: at, seq: seq, kind: evRetryBatch, batch: i})
			return
		}
	}
	s.chargeRenacks(at, retry, run)
}

// chargeRenacks charges n requests NACKed again at cycle at without a look
// at the bank, all retrying at retry: the bank counts their NACKs and each
// one's wait is charged as chargeNack would.
func (s *Simulator) chargeRenacks(at, retry int64, n uint64) {
	if n == 0 {
		return
	}
	s.l2.Renack(n)
	wait := int64(n) * (retry - at)
	s.memCycles += wait
	s.nocCycles -= wait
}

// markDirty queues SM i for this step's outgoing-traffic drain.
func (s *Simulator) markDirty(i int) { s.dirty[i>>6] |= 1 << (i & 63) }

// drainOutgoing moves freshly generated misses and write-backs into the
// interconnect. Only SMs that were cycled or received a fill this step can
// have new outgoing traffic, so it pulls from the step's dirty set (in SM
// order, for deterministic link arbitration) instead of scanning every SM.
func (s *Simulator) drainOutgoing() { forEachSM(s.dirty, s.drainSM) }

// drainSM moves SM i's outgoing traffic into the interconnect.
func (s *Simulator) drainSM(i int) {
	sm := s.sms[i]
	for {
		req, ok := sm.PopOutgoing()
		if !ok {
			return
		}
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

// cycleSM runs one cycle of SM i at the current time and reschedules it.
func (s *Simulator) cycleSM(i int) {
	sm := s.sms[i]
	sm.CatchUp(s.now)
	sm.Cycle(s.now)
	s.markDirty(i)
	if sm.Done() {
		s.doneSMs++
		s.wake.remove(i)
		return
	}
	if next := sm.NextSelfEventAt(s.now + 1); next >= 0 {
		s.wake.update(i, next)
	} else {
		// Every live warp is blocked on an in-flight fill and the cache is
		// idle: sleep until a fill delivery re-inserts the SM.
		s.wake.remove(i)
	}
}

// stepSparse executes one step of the sparse engine at the current cycle:
// deliver due events, cycle only the SMs whose wake time has come, drain
// their traffic, advance the clock.
func (s *Simulator) stepSparse() {
	s.processEvents()
	s.wake.popDue(s.now, s.due)
	forEachSM(s.due, s.cycleSM) // SM order: deterministic issue and drain sequence
	s.drainOutgoing()
	s.now++
}

// Step advances the simulation by exactly one cycle, cycling every SM that
// has not retired its budget — the step-every-cycle reference the sparse
// engine is checked against (see RunReference).
func (s *Simulator) Step() {
	s.processEvents()
	for i, sm := range s.sms {
		if !sm.Done() {
			s.cycleSM(i)
		}
	}
	s.drainOutgoing()
	s.now++
}

// nextTime returns the earliest cycle at which anything can happen: an SM
// waking, an event delivery, or a controller scheduling point. It returns -1
// when the machine can never make progress again.
func (s *Simulator) nextTime() int64 {
	t := s.wake.minAt()
	if s.events.len() > 0 {
		if at := s.events.peek().at; t < 0 || at < t {
			t = at
		}
	}
	if s.memTickAt >= 0 && (t < 0 || s.memTickAt < t) {
		t = s.memTickAt
	}
	return t
}

// settle charges the idle tail of every unfinished SM (a run that hits
// MaxCycles, or SMs that slept while the last finisher retired).
func (s *Simulator) settle() {
	for _, sm := range s.sms {
		sm.CatchUp(s.now)
	}
}

// Run executes the simulation to completion (or the cycle limit) and returns
// the results.
func (s *Simulator) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation: the context is polled every few
// thousand steps (cheap enough to be invisible in profiles), and an expired
// context aborts the run with the context's error.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	opts := s.opts
	var steps uint
	for s.doneSMs < len(s.sms) && s.now < opts.MaxCycles {
		if steps++; steps&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		t := s.nextTime()
		if t < 0 || t >= opts.MaxCycles {
			// Nothing can happen before the cycle limit: no SM wake, event
			// or controller tick is due inside it (or nothing is pending at
			// all). Idle to the limit — exactly what stepping every
			// remaining cycle would do, minus the spin; settle() charges
			// the skipped idle cycles.
			s.now = opts.MaxCycles
			break
		}
		if t > s.now {
			s.now = t
		}
		s.stepSparse()
	}
	s.settle()
	return s.collect(), nil
}

// RunReference executes the simulation stepping every cycle and cycling every
// live SM — no wake scheduling, no idle-cycle skipping. It is the semantic
// reference the sparse engine must match bit-for-bit (the engine equivalence
// test asserts identical Result structs) and is kept for validation; it is
// dramatically slower on memory-bound workloads.
func (s *Simulator) RunReference() Result {
	for s.doneSMs < len(s.sms) && s.now < s.opts.MaxCycles {
		s.Step()
	}
	s.settle()
	return s.collect()
}

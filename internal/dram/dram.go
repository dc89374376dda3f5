// Package dram models the off-chip global memory of the GPU as an
// event-driven memory controller: multiple channels, each with several banks,
// per-bank row buffers and the tCL/tRCD/tRP/tRAS timing constraints that make
// a row miss so much more expensive than a row hit. Requests are submitted
// into bounded per-channel queues and scheduled with FR-FCFS — at every
// scheduling event, queued row hits are issued ahead of older row misses —
// which is how real GPU memory controllers coalesce and reorder traffic
// (Section II-A2). The technology behind the controller is a pluggable
// Backend (GDDR5, GDDR5X, HBM2, an STT-MRAM main-memory point); the
// controller charges the backend's per-command energy as it schedules.
//
// The controller is driven by its owner's event loop: Submit enqueues (a
// caller holding rejected work asks HasRoom before it tries again),
// NextEventAt reports when the controller next has work, and Advance issues
// every due command and returns the completed transfers. The synchronous
// Access helper drives a standalone controller to completion for one request
// (unit tests and small tools); it must not be mixed with Submit/Advance
// callers on the same controller.
package dram

import (
	"fmt"
	"math"
	"slices"

	"fuse/internal/mem"
)

// Config describes the controller geometry and (for the GDDR5 baseline
// backend) the timing overrides. All timings are expressed in core cycles
// for simplicity (the paper's Table I lists them in DRAM cycles; the ratio
// is folded into the values).
type Config struct {
	// Channels is the number of independent memory channels.
	Channels int
	// BanksPerChannel is the number of banks per channel.
	BanksPerChannel int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TCL is the CAS latency (cycles from column command to data).
	TCL int
	// TRCD is the RAS-to-CAS delay (activate to column command).
	TRCD int
	// TRP is the precharge latency.
	TRP int
	// TRAS is the minimum activate-to-precharge time.
	TRAS int
	// BurstCycles is the data transfer time of one 128-byte block.
	BurstCycles int
	// QueueDepth bounds the per-channel requests outstanding (queued plus
	// in flight); when the bound is reached Submit rejects and the caller
	// must hold the request (back-pressure).
	QueueDepth int
	// Backend selects the memory technology ("" = GDDR5). See Backends().
	Backend string
}

// withDefaults fills zero geometry fields with the paper's Table I values.
// Timing fields are resolved by the backend (the GDDR5 backend applies the
// Table I timings to zero fields; other backends own their timing).
func (c Config) withDefaults() Config {
	if c.Channels <= 0 {
		c.Channels = 6
	}
	if c.BanksPerChannel <= 0 {
		c.BanksPerChannel = 8
	}
	if c.RowBytes <= 0 {
		c.RowBytes = 2048
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// request is one queued (not yet issued) access.
type request struct {
	seq    uint64
	addr   uint64
	row    int64
	bank   int
	write  bool
	arrive int64
}

// flight is one issued access awaiting its data burst completion.
type flight struct {
	req  request
	done int64
}

// bankState tracks one bank: the currently open row and when the bank
// finishes its current operation.
type bankState struct {
	openRow    int64
	hasOpenRow bool
	readyAt    int64
	lastActAt  int64
}

// channelState tracks one channel: the FR-FCFS scheduling pool, the issued
// in-flight requests and the occupancy of the shared data bus.
type channelState struct {
	queue     []request
	flights   []flight
	banks     []bankState
	busFreeAt int64
	// next is the channel's earliest event: the minimum over its flights'
	// completions and its queued requests' issue-ready times, math.MaxInt64
	// when idle. It is kept exact incrementally — lowered on enqueue (which
	// changes no bank state) and taken from the retire and issue scans of
	// every Advance that touches the channel — so NextEventAt never rescans
	// the queues.
	next int64
}

// Completion reports one finished transfer: the block whose data burst
// completed on the channel bus at cycle Done. Seq matches the value returned
// by Submit.
type Completion struct {
	Seq   uint64
	Addr  uint64
	Write bool
	Done  int64
}

// DRAM is the whole off-chip memory: the controller plus its backend.
type DRAM struct {
	cfg      Config
	backend  Backend
	timing   Timing
	energy   Energy
	channels []channelState
	nextSeq  uint64
	// compBuf is the reusable backing array of Advance's completion slice.
	compBuf []Completion

	accesses  uint64
	rowHits   uint64
	rowMisses uint64
	reads     uint64
	writes    uint64
	totalLat  uint64
	stallsQ   uint64
	energyNJ  float64
}

// resolve applies the geometry defaults and resolves the backend and its
// timing, returning all three plus the effective configuration.
func (c Config) resolve() (Config, Backend, Timing, error) {
	c = c.withDefaults()
	be, err := BackendByName(c.Backend)
	if err != nil {
		return Config{}, nil, Timing{}, err
	}
	t := be.Timing(c)
	c.Backend = be.Name()
	c.TCL, c.TRCD, c.TRP, c.TRAS, c.BurstCycles = t.TCL, t.TRCD, t.TRP, t.TRAS, t.BurstCycles
	return c, be, t, nil
}

// Resolve returns the effective configuration New would run with: geometry
// defaults applied and timing resolved through the backend. Two Configs
// that Resolve identically describe the identical controller — the result
// store canonicalises its keys with this.
func (c Config) Resolve() (Config, error) {
	resolved, _, _, err := c.resolve()
	return resolved, err
}

// New builds a memory controller (zero-value geometry fields take the
// paper's defaults). It panics on an unknown backend name; callers that
// accept user input validate with BackendByName first.
func New(cfg Config) *DRAM {
	resolved, be, timing, err := cfg.resolve()
	if err != nil {
		panic(err.Error())
	}
	d := &DRAM{cfg: resolved, backend: be, timing: timing, energy: be.Energy()}
	d.channels = make([]channelState, resolved.Channels)
	for i := range d.channels {
		d.channels[i].banks = make([]bankState, resolved.BanksPerChannel)
		d.channels[i].next = math.MaxInt64
	}
	return d
}

// Config returns the effective configuration (timing resolved through the
// backend).
func (d *DRAM) Config() Config { return d.cfg }

// BackendName returns the name of the technology behind the controller.
func (d *DRAM) BackendName() string { return d.backend.Name() }

// Channels returns the number of channels.
func (d *DRAM) Channels() int { return d.cfg.Channels }

// ChannelFor maps a block address to its channel (low-order interleaving
// above the block offset spreads consecutive blocks across channels).
func (d *DRAM) ChannelFor(addr uint64) int {
	return int(mem.BlockIndex(addr)) % d.cfg.Channels
}

// bankFor maps a block address to a bank within its channel.
func (d *DRAM) bankFor(addr uint64) int {
	return int(mem.BlockIndex(addr)/uint64(d.cfg.Channels)) % d.cfg.BanksPerChannel
}

// rowFor returns the row number the address falls in.
func (d *DRAM) rowFor(addr uint64) int64 {
	blocksPerRow := uint64(d.cfg.RowBytes / mem.BlockSize)
	if blocksPerRow == 0 {
		blocksPerRow = 1
	}
	return int64(mem.BlockIndex(addr) / uint64(d.cfg.Channels) / uint64(d.cfg.BanksPerChannel) / blocksPerRow)
}

// HasRoom reports whether channel ch's queue can take a request. A caller
// holding work the channel rejected retries it only once HasRoom holds, so
// the retry is accepted and the rejection is counted once.
func (d *DRAM) HasRoom(ch int) bool {
	c := &d.channels[ch]
	return len(c.queue)+len(c.flights) < d.cfg.QueueDepth
}

// Submit enqueues a read or write of one 128-byte block arriving at the
// controller at cycle `at`. It returns the request's sequence number and
// whether the channel accepted it; a false result means the channel queue is
// full, counts one queue stall, and the caller must hold the request until
// its channel has room again (back-pressure, see HasRoom).
func (d *DRAM) Submit(addr uint64, write bool, at int64) (uint64, bool) {
	c := d.ChannelFor(addr)
	if !d.HasRoom(c) {
		d.stallsQ++
		return 0, false
	}
	ch := &d.channels[c]
	d.nextSeq++
	r := request{
		seq:    d.nextSeq,
		addr:   addr,
		row:    d.rowFor(addr),
		bank:   d.bankFor(addr),
		write:  write,
		arrive: at,
	}
	ch.queue = append(ch.queue, r)
	ch.next = min(ch.next, d.issueReadyAt(ch, r))
	d.accesses++
	if write {
		d.writes++
	} else {
		d.reads++
	}
	return r.seq, true
}

// Pending returns the number of requests queued or in flight.
func (d *DRAM) Pending() int {
	n := 0
	for i := range d.channels {
		n += len(d.channels[i].queue) + len(d.channels[i].flights)
	}
	return n
}

// issueReadyAt returns the earliest cycle the request's row/bank constraints
// allow its commands to start: its arrival, the bank finishing its current
// operation, and — when a precharge is needed — tRAS since the last
// activation.
func (d *DRAM) issueReadyAt(ch *channelState, r request) int64 {
	b := &ch.banks[r.bank]
	at := r.arrive
	if b.readyAt > at {
		at = b.readyAt
	}
	if b.hasOpenRow && b.openRow != r.row {
		if minPre := b.lastActAt + int64(d.timing.TRAS); minPre > at {
			at = minPre
		}
	}
	return at
}

// NextEventAt returns the earliest cycle at which the controller can make
// progress: a queued request becoming issuable or an in-flight burst
// completing. It returns -1 when the controller is idle.
func (d *DRAM) NextEventAt() int64 {
	next := int64(math.MaxInt64)
	for i := range d.channels {
		next = min(next, d.channels[i].next)
	}
	if next == math.MaxInt64 {
		return -1
	}
	return next
}

// pick selects the next request to issue on the channel at cycle now using
// FR-FCFS: among the requests whose constraints are satisfied, the oldest
// row hit wins; with no issuable row hit, the oldest issuable request wins.
// Age ordering comes from the queue itself — it is append-only with
// order-preserving deletion, so earlier indices are always older requests —
// so the first issuable row hit is the pick and ends the scan. It returns -1
// when nothing can issue at `now`, and then also the earliest cycle a queued
// request becomes issuable (math.MaxInt64 for an empty queue): with no
// early exit the scan has seen every request.
func (d *DRAM) pick(ch *channelState, now int64) (int, int64) {
	best, next := -1, int64(math.MaxInt64)
	for i := range ch.queue {
		r := &ch.queue[i]
		if at := d.issueReadyAt(ch, *r); at > now {
			next = min(next, at)
			continue
		}
		if b := &ch.banks[r.bank]; b.hasOpenRow && b.openRow == r.row {
			return i, 0
		}
		if best < 0 {
			best = i
		}
	}
	return best, next
}

// service issues one request at cycle now, updating bank, bus and energy
// state, and returns its completion time.
func (d *DRAM) service(ch *channelState, r request, now int64) int64 {
	b := &ch.banks[r.bank]
	var dataAt int64
	if b.hasOpenRow && b.openRow == r.row {
		d.rowHits++
		dataAt = now + int64(d.timing.TCL)
	} else {
		d.rowMisses++
		start := now
		if b.hasOpenRow {
			// tRAS was respected by issueReadyAt; pay the precharge.
			start += int64(d.timing.TRP)
		}
		b.lastActAt = start
		b.hasOpenRow = true
		b.openRow = r.row
		dataAt = start + int64(d.timing.TRCD) + int64(d.timing.TCL)
		d.energyNJ += d.energy.ActivateNJ
	}

	// The data burst occupies the channel's shared bus; STT-MRAM-class
	// backends pay the write-path gap on top of the burst.
	burst := int64(d.timing.BurstCycles)
	if r.write {
		burst += int64(d.timing.WriteBurstExtra)
		d.energyNJ += d.energy.WriteNJ
	} else {
		d.energyNJ += d.energy.ReadNJ
	}
	burstStart := dataAt
	if ch.busFreeAt > burstStart {
		burstStart = ch.busFreeAt
	}
	done := burstStart + burst
	ch.busFreeAt = done
	b.readyAt = done
	d.totalLat += uint64(done - r.arrive)
	return done
}

// Advance runs the controller up to cycle now: it retires every burst that
// completed at or before now and issues every request whose constraints are
// satisfied, in FR-FCFS order. Completions are returned sorted by completion
// time (ties by submission order); the returned slice is valid only until
// the next Advance call. Callers re-arm their event loop from NextEventAt
// afterwards. Each channel Advance visits gets its next event from the same
// scans: the earliest completion among the flights it keeps or issues, and
// the earliest issue-ready time of the requests left queued.
func (d *DRAM) Advance(now int64) []Completion {
	out := d.compBuf[:0]
	defer func() { d.compBuf = out[:0] }()
	for i := range d.channels {
		ch := &d.channels[i]
		if ch.next > now {
			// Nothing completes and nothing is issuable before ch.next.
			continue
		}
		next := int64(math.MaxInt64)
		kept := ch.flights[:0]
		for _, f := range ch.flights {
			if f.done <= now {
				out = append(out, Completion{Seq: f.req.seq, Addr: f.req.addr, Write: f.req.write, Done: f.done})
			} else {
				kept = append(kept, f)
				next = min(next, f.done)
			}
		}
		ch.flights = kept
		for {
			idx, ready := d.pick(ch, now)
			if idx < 0 {
				ch.next = min(next, ready)
				break
			}
			r := ch.queue[idx]
			ch.queue = slices.Delete(ch.queue, idx, idx+1)
			done := d.service(ch, r, now)
			ch.flights = append(ch.flights, flight{req: r, done: done})
			next = min(next, done)
		}
	}
	slices.SortFunc(out, func(a, b Completion) int {
		if a.Done != b.Done {
			return int(a.Done - b.Done)
		}
		return int(a.Seq - b.Seq)
	})
	return out
}

// Access synchronously drives one request to completion and returns the
// cycle at which its data transfer completes. It is a standalone driver for
// unit tests and small tools; do not mix it with Submit/Advance callers on
// the same controller, because it discards the completions of other
// outstanding requests.
func (d *DRAM) Access(addr uint64, write bool, now int64) int64 {
	at := now
	seq, ok := d.Submit(addr, write, at)
	for !ok {
		next := d.NextEventAt()
		if next <= at {
			next = at + 1
		}
		d.Advance(next)
		at = next
		if d.HasRoom(d.ChannelFor(addr)) {
			seq, ok = d.Submit(addr, write, at)
		}
	}
	for {
		next := d.NextEventAt()
		if next < 0 {
			panic("dram: submitted request produced no event")
		}
		if next < at {
			next = at
		}
		for _, c := range d.Advance(next) {
			if c.Seq == seq {
				return c.Done
			}
		}
		at = next
	}
}

// Accesses returns the number of requests accepted.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// Reads returns the number of read requests accepted.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of write requests accepted.
func (d *DRAM) Writes() uint64 { return d.writes }

// RowHitRate returns the fraction of issued requests that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	total := d.rowHits + d.rowMisses
	if total == 0 {
		return 0
	}
	return float64(d.rowHits) / float64(total)
}

// AverageLatency returns the mean arrival-to-completion latency in cycles of
// the requests issued so far.
func (d *DRAM) AverageLatency() float64 {
	issued := d.rowHits + d.rowMisses
	if issued == 0 {
		return 0
	}
	return float64(d.totalLat) / float64(issued)
}

// QueueStalls returns the number of submissions rejected by a full channel
// queue.
func (d *DRAM) QueueStalls() uint64 { return d.stallsQ }

// EnergyNJ returns the dynamic energy in nano-joules charged by the backend
// for the commands issued so far.
func (d *DRAM) EnergyNJ() float64 { return d.energyNJ }

// String describes the configuration.
func (d *DRAM) String() string {
	return fmt.Sprintf("%s{%d channels x %d banks, tCL=%d tRCD=%d tRP=%d tRAS=%d}",
		d.backend.Name(), d.cfg.Channels, d.cfg.BanksPerChannel, d.cfg.TCL, d.cfg.TRCD, d.cfg.TRP, d.cfg.TRAS)
}

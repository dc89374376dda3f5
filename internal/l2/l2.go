// Package l2 models the shared, banked L2 cache that sits between the
// interconnection network and the off-chip memory controller. Every bank is a
// set-associative write-back cache with its own access port and its own MSHR
// file: a read miss allocates an MSHR entry (back-pressuring the requester
// when PendingLimit entries are outstanding), secondary misses merge into the
// in-flight entry, and the block is inserted into the tag store only when the
// DRAM fill completes — an access can therefore never observe a block earlier
// than the memory controller delivered it. The L2 access latency includes the
// ECC overhead that makes it far slower than the L1D (Section II-A2).
//
// The miss path is event-driven: Access classifies the request and (on a
// primary miss) submits the fill to the controller; the owner's event loop
// calls Advance at NextEventAt times, and Advance returns the completed fills
// with every waiter that merged into them.
package l2

import (
	"fmt"
	"math/bits"

	"fuse/internal/cache"
	"fuse/internal/dram"
	"fuse/internal/mem"
)

// Config describes the shared L2 cache.
type Config struct {
	// Banks is the number of independently addressed banks.
	Banks int
	// TotalKB is the aggregate capacity across banks.
	TotalKB int
	// Ways is the associativity of each bank.
	Ways int
	// LatencyCycles is the bank access latency (tag + data + ECC).
	LatencyCycles int
	// PortOccupancy is the number of cycles an access occupies the bank
	// port; the bank is pipelined, so this is much smaller than the access
	// latency and determines the bank's throughput.
	PortOccupancy int
	// PendingLimit is the number of MSHR entries per bank: the number of
	// outstanding primary misses a bank can track before it back-pressures.
	PendingLimit int
	// MergeWidth is the maximum number of read requests merged into one
	// MSHR entry (the primary plus secondaries).
	MergeWidth int
}

// withDefaults fills zero fields with the paper's Table I values: 786 KB
// across 12 banks, 8-way.
func (c Config) withDefaults() Config {
	if c.Banks <= 0 {
		c.Banks = 12
	}
	if c.TotalKB <= 0 {
		c.TotalKB = 786
	}
	if c.Ways <= 0 {
		c.Ways = 8
	}
	if c.LatencyCycles <= 0 {
		c.LatencyCycles = 30
	}
	if c.PortOccupancy <= 0 {
		c.PortOccupancy = 2
	}
	if c.PendingLimit <= 0 {
		c.PendingLimit = 64
	}
	if c.MergeWidth <= 0 {
		c.MergeWidth = 16
	}
	return c
}

// Waiter is one request merged into an in-flight fill, with its arrival time
// at the L2 (per-requestor latency accounting needs it) and the earliest
// cycle its own bank pipeline could deliver data.
type Waiter struct {
	Req    mem.Request
	Arrive int64
	// Ready is the cycle the waiter's tag/ECC pipeline completes (port
	// serialisation included): its data cannot be returned before
	// max(Ready, the fill's completion), even when the fill lands first.
	Ready int64
}

// DoneAt returns the cycle the waiter's data is available given its fill's
// completion time: the fill delivery, floored at the waiter's own bank
// pipeline latency — a secondary miss can never beat an L2 hit.
func (w Waiter) DoneAt(fillDone int64) int64 {
	if w.Ready > fillDone {
		return w.Ready
	}
	return fillDone
}

// fillEntry is one MSHR entry: an outstanding primary miss and the requests
// merged into it.
type fillEntry struct {
	block   uint64
	pc      uint64
	dirty   bool // a full-block write merged into the fill: insert dirty
	readyAt int64
	waiters []Waiter
}

// fifo is a queue popped through a head index. Its backing array is reused
// from the start once the queue drains, and compacted when a push finds the
// popped prefix at least as long as the rest, so it never holds more than
// twice its peak length.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) front() T { return q.items[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && q.head >= len(q.items)-q.head {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() {
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// bank is one L2 cache bank.
type bank struct {
	store  *cache.TagStore
	portAt int64
	// ch is the DRAM channel every block of the bank maps to.
	ch int
	// mshr maps a block to its outstanding fill. Reads allocate only while
	// fewer than PendingLimit entries are outstanding, so its table, sized
	// to that bound, never grows.
	mshr mem.BlockTable[*fillEntry]
	// held lists the MSHR entries whose fill the controller rejected, in
	// allocation order; pump resubmits them from the front.
	held fifo[*fillEntry]
	// wbq is the bank's write buffer: dirty victims the channel queue
	// rejected. It is deliberately unbounded — evictions happen at fill
	// completion and cannot be NACKed — but growth is self-limiting (each
	// entry stems from one insert, and inserts are paced by the same
	// bounded fill path), and pump drains it ahead of new fills so write
	// traffic still contends for the bounded channel queue.
	wbq fifo[uint64]
	// setVer holds one version per tag-store set. A set's version moves on
	// every change to the set that can end a read NACK of one of its
	// blocks: an insert (the block may now be present), which also covers
	// every MSHR release (a fill's entry is released as its block is
	// inserted, freeing a slot or the block's merge list); and an MSHR
	// allocation (a block NACKed for a full file may now merge). Merges need
	// no bump: merge lists only grow until their release. A NACK is stamped
	// with its block's set version; while that holds, a retry is NACKed
	// again (see NackHolds). Versions start at 1, so the zero version
	// matches no set.
	setVer []uint64
}

// L2 is the shared cache; it owns the memory controller so that a miss can
// be charged the full off-chip latency.
type L2 struct {
	cfg   Config
	banks []*bank
	dram  *dram.DRAM

	// fillBuf is the reusable backing array of Advance's result slice.
	fillBuf []Fill
	// backlog has bit i set while bank i holds fills the controller
	// rejected or buffered write-backs, so pump visits only those banks.
	backlog []uint64
	// entryPool recycles released MSHR entries (with their waiter slices),
	// so a long memory-bound run stops allocating per miss. Entries retire
	// through `retired` first: a delivered entry's waiters alias the Fill
	// handed to the caller, so it only becomes reusable at the next Advance.
	entryPool []*fillEntry
	retired   []*fillEntry

	accesses   uint64
	hits       uint64
	misses     uint64
	mergedFly  uint64
	mshrStalls uint64
}

// New builds an L2 cache backed by the given memory controller. The
// controller must not be nil, and its channels must divide the banks evenly
// (config.GPUConfig.Validate guarantees it), so that every block of bank b
// maps to channel b mod the channel count.
func New(cfg Config, d *dram.DRAM) *L2 {
	cfg = cfg.withDefaults()
	if d == nil {
		panic("l2: nil DRAM")
	}
	if cfg.Banks%d.Channels() != 0 {
		panic(fmt.Sprintf("l2: %d banks do not divide evenly across %d DRAM channels", cfg.Banks, d.Channels()))
	}
	l := &L2{cfg: cfg, dram: d}
	blocksPerBank := cfg.TotalKB * 1024 / mem.BlockSize / cfg.Banks
	if blocksPerBank < cfg.Ways {
		blocksPerBank = cfg.Ways
	}
	sets := blocksPerBank / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	l.banks = make([]*bank, cfg.Banks)
	for i := range l.banks {
		l.banks[i] = &bank{
			ch:     i % d.Channels(),
			store:  cache.NewTagStore(sets, cfg.Ways, cache.LRU),
			mshr:   mem.NewBlockTable[*fillEntry](cfg.PendingLimit),
			setVer: make([]uint64, sets),
		}
		for s := range l.banks[i].setVer {
			l.banks[i].setVer[s] = 1
		}
	}
	l.backlog = make([]uint64, (cfg.Banks+63)>>6)
	return l
}

// Config returns the effective configuration.
func (l *L2) Config() Config { return l.cfg }

// Banks returns the number of banks.
func (l *L2) Banks() int { return l.cfg.Banks }

// BankFor maps a block address to its bank.
func (l *L2) BankFor(addr uint64) int {
	return int(mem.BlockIndex(addr)) % l.cfg.Banks
}

// Outcome classifies how the L2 handled a request.
type Outcome uint8

const (
	// OutcomeHit: the block was present; Done is the data availability time.
	OutcomeHit Outcome = iota
	// OutcomeMiss: a primary miss; an MSHR entry was allocated and the fill
	// submitted (reads) or the line allocated in place (full-block writes,
	// for which Done is the absorption time). Read data arrives via a Fill.
	OutcomeMiss
	// OutcomeMerged: the block is already being fetched; the request merged
	// into the in-flight MSHR entry and completes with its Fill.
	OutcomeMerged
	// OutcomeBlocked: the bank's MSHR file (or the entry's merge list) is
	// full; the requester must retry at RetryAt.
	OutcomeBlocked
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeMerged:
		return "merged"
	case OutcomeBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Result describes how the L2 handled a request.
type Result struct {
	// Outcome classifies the access.
	Outcome Outcome
	// Done is the cycle at which the requested data is available at the
	// bank's port. It is only meaningful for OutcomeHit (and, for writes,
	// the cycle the write-back was absorbed).
	Done int64
	// RetryAt is the cycle at which a blocked request should be retried.
	RetryAt int64
	// Version is, for OutcomeBlocked, the version of the NACKed block's set
	// at the NACK, shifted left by one, with the low bit set when the NACK
	// was for a full MSHR file rather than a full merge list: a retry that
	// finds the set still at it is blocked again (see NackHolds).
	Version uint64
	// Set is, for OutcomeBlocked, the NACKed block's set in its bank's tag
	// store, the set whose version Version records.
	Set int
}

// Fill reports one completed DRAM fill: the block became visible in the tag
// store at cycle Done, and every waiter's data is available at the bank port
// at Done.
type Fill struct {
	Bank    int
	Block   uint64
	Done    int64
	Waiters []Waiter
}

// Access presents a request arriving at the L2 at cycle `now`. Hits return
// the availability time of the data; read misses allocate or merge into an
// MSHR entry and complete via a later Fill; writes (write-backs from the
// L1D) are absorbed by the bank and, on a miss, allocate the line without
// fetching from DRAM (the entire block is being overwritten).
func (l *L2) Access(req mem.Request, now int64) Result {
	block := req.BlockAddr()
	bankIdx := l.BankFor(block)
	b := l.banks[bankIdx]
	write := req.Kind == mem.Write

	// Structural hazards are discovered at the bank's input arbitration,
	// before the request wins the port: a NACKed request costs no port
	// bandwidth (otherwise retry traffic under a saturated MSHR file would
	// starve the very fills that resolve it). A read is NACKed when its
	// merge list is full, or when it needs a fresh MSHR entry and the file
	// is full. Its tag-store and MSHR lookups here are the only ones it
	// makes: the port arbitration below reads neither, so a read hit may
	// update the line's replacement state ahead of it.
	var hit bool
	var inFlight *fillEntry
	if !write {
		if _, hit = b.store.Touch(block, false); !hit {
			inFlight, _ = b.mshr.Get(block)
			fileFull := inFlight == nil && b.mshr.Len() >= l.cfg.PendingLimit
			if fileFull || inFlight != nil && len(inFlight.waiters) >= l.cfg.MergeWidth {
				l.mshrStalls++
				set := b.store.SetIndex(block)
				v := b.setVer[set] << 1
				if fileFull {
					v |= 1
				}
				return Result{Outcome: OutcomeBlocked, RetryAt: l.RetryAt(now), Version: v, Set: set}
			}
		}
	}

	// Serialise on the bank port: the bank is pipelined, so an access only
	// occupies the port for PortOccupancy cycles even though its latency is
	// LatencyCycles.
	start := now
	if b.portAt > start {
		start = b.portAt
	}
	ready := start + int64(l.cfg.LatencyCycles)
	b.portAt = start + int64(l.cfg.PortOccupancy)

	l.accesses++
	if write {
		if _, hit = b.store.Touch(block, true); !hit {
			inFlight, _ = b.mshr.Get(block)
		}
	}

	if hit {
		l.hits++
		return Result{Outcome: OutcomeHit, Done: ready}
	}

	// A miss on a block that is already being fetched merges with the
	// in-flight fill.
	if e := inFlight; e != nil {
		l.mergedFly++
		l.hits++ // counts as a hit for miss-rate purposes: no new DRAM access
		if write {
			// The full-block write overwrites the data in flight: the fill
			// installs the line dirty and the store needs no response.
			e.dirty = true
			return Result{Outcome: OutcomeMerged}
		}
		e.waiters = append(e.waiters, Waiter{Req: req, Arrive: now, Ready: ready})
		return Result{Outcome: OutcomeMerged}
	}

	l.misses++
	if write {
		// Write-back miss: allocate without fetching (full-block write).
		l.insert(bankIdx, block, req.PC, now, true)
		return Result{Outcome: OutcomeMiss, Done: ready}
	}

	// Primary read miss: allocate an MSHR entry (recycled when possible).
	var e *fillEntry
	if n := len(l.entryPool); n > 0 {
		e = l.entryPool[n-1]
		l.entryPool = l.entryPool[:n-1]
		*e = fillEntry{waiters: e.waiters[:0]}
	} else {
		e = &fillEntry{}
	}
	e.block = block
	e.pc = req.PC
	e.readyAt = ready // the fill leaves for DRAM once the tag lookup completes
	e.waiters = append(e.waiters, Waiter{Req: req, Arrive: now, Ready: ready})
	b.mshr.Put(block, e)
	b.setVer[b.store.SetIndex(block)]++ // a read NACKed for a full file may now merge
	if _, ok := l.dram.Submit(block, false, ready); !ok {
		b.held.push(e)
		l.backlog[bankIdx>>6] |= 1 << (bankIdx & 63)
	}
	return Result{Outcome: OutcomeMiss}
}

// NackHolds reports whether a read that bank NACKed with version v in the
// given set (see Result.Version and Result.Set) would be NACKed again if
// presented now. While the set is still at the version, the block is still
// absent from the tag store and its MSHR entry has been neither allocated
// nor released; merge lists only grow. So a read NACKed for a full merge list
// is NACKed again, and so is one NACKed for a full MSHR file while the file
// is still full, with the same version and set. The caller charges such a
// read with Renack and RetryAt instead of presenting it through Access,
// whose tag-store and MSHR lookups it skips; when NackHolds is false the
// read must go through Access.
func (l *L2) NackHolds(bank, set int, v uint64) bool {
	b := l.banks[bank]
	return b.setVer[set] == v>>1 && (v&1 == 0 || b.mshr.Len() >= l.cfg.PendingLimit)
}

// Renack counts n reads NACKed again without a second look at the bank (see
// NackHolds), exactly as n rejected Accesses would.
func (l *L2) Renack(n uint64) { l.mshrStalls += n }

// RetryAt picks the retry time of a request NACKed at cycle now: just after
// the memory controller's next event (the earliest moment a fill can retire
// and free the MSHR slot the request is waiting for), or one bank latency out
// when the controller reports nothing sooner. Always strictly later than now,
// so retries cannot live-lock the event loop. It changes only when the
// controller does: through an Access that submits work, or an Advance.
func (l *L2) RetryAt(now int64) int64 {
	if next := l.dram.NextEventAt(); next > now {
		return next + 1
	}
	return now + int64(l.cfg.LatencyCycles)
}

// insert allocates a block in bank bankIdx at cycle `at` and hands any
// dirty victim to the memory controller (buffering it when the channel queue
// is full). It moves the set's version: a read NACKed before may now hit.
func (l *L2) insert(bankIdx int, block, pc uint64, at int64, dirty bool) {
	b := l.banks[bankIdx]
	evicted, line := b.store.Insert(block, pc, dirty, mem.WORM)
	line.Dirty = dirty
	b.setVer[b.store.SetIndex(block)]++
	if evicted.Valid && evicted.Dirty {
		if _, ok := l.dram.Submit(evicted.Block, true, at); !ok {
			b.wbq.push(evicted.Block)
			l.backlog[bankIdx>>6] |= 1 << (bankIdx & 63)
		}
	}
}

// pump retries work held back by controller back-pressure, bank by bank in
// bank order: buffered dirty write-backs first, then held MSHR fills, in
// allocation order. Only banks in the backlog hold any, and a bank's work
// goes to the one channel all its blocks map to: pump hands over work only
// while that channel has room, so no retry is rejected, and it passes over a
// bank whose channel is full. It reports whether anything new was handed to
// the controller.
func (l *L2) pump(now int64) bool {
	submitted := false
	for k, word := range l.backlog {
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			b := l.banks[i]
			for b.wbq.len() > 0 && l.dram.HasRoom(b.ch) {
				l.submit(b.wbq.front(), true, now)
				b.wbq.pop()
				submitted = true
			}
			for b.held.len() > 0 && l.dram.HasRoom(b.ch) {
				e := b.held.front()
				l.submit(e.block, false, max(e.readyAt, now))
				b.held.pop()
				submitted = true
			}
			if b.wbq.len() == 0 && b.held.len() == 0 {
				l.backlog[k] &^= 1 << (i & 63)
			}
		}
	}
	return submitted
}

// submit hands held-back work to a channel with room, which must accept it.
func (l *L2) submit(block uint64, write bool, at int64) {
	if _, ok := l.dram.Submit(block, write, at); !ok {
		panic(fmt.Sprintf("l2: DRAM channel %d rejected block %#x after reporting room", l.dram.ChannelFor(block), block))
	}
}

// NextEventAt returns the earliest cycle at which the memory side can make
// progress (-1 when fully idle). Work held back by back-pressure never
// idles the controller: the queue that rejected it is by definition full.
func (l *L2) NextEventAt() int64 { return l.dram.NextEventAt() }

// Advance runs the memory controller up to cycle now and returns the fills
// that completed: each block is inserted into its bank's tag store at its
// completion time (never earlier — this is the ordering the whole off-chip
// accounting rests on) and its MSHR entry is released with all merged
// waiters. Back-pressured fills and write-backs are resubmitted as queue
// slots free up. The returned slice (and the waiter slices it carries) is
// valid only until the next Advance call.
func (l *L2) Advance(now int64) []Fill {
	// Entries delivered by the previous Advance are no longer referenced by
	// the caller: recycle them.
	for _, e := range l.retired {
		l.entryPool = append(l.entryPool, e)
	}
	l.retired = l.retired[:0]
	fills := l.fillBuf[:0]
	defer func() { l.fillBuf = fills[:0] }()
	for {
		comps := l.dram.Advance(now)
		for _, c := range comps {
			if c.Write {
				continue // write-backs need no upstream action
			}
			bankIdx := l.BankFor(c.Addr)
			b := l.banks[bankIdx]
			// Every completed read is a fill this L2 allocated an entry for;
			// the insert below moves the set's version.
			e, _ := b.mshr.Delete(c.Addr)
			l.insert(bankIdx, c.Addr, e.pc, c.Done, e.dirty)
			fills = append(fills, Fill{Bank: bankIdx, Block: c.Addr, Done: c.Done, Waiters: e.waiters})
			l.retired = append(l.retired, e)
		}
		// Draining completions freed queue slots: resubmit held-back work,
		// and loop so the controller can issue it at this same event time.
		if !l.pump(now) {
			return fills
		}
	}
}

// Accesses returns the number of requests handled (blocked retries count
// once, when they finally succeed).
func (l *L2) Accesses() uint64 { return l.accesses }

// Hits returns the number of L2 hits (including merges with in-flight fills).
func (l *L2) Hits() uint64 { return l.hits }

// Misses returns the number of L2 misses that went to DRAM.
func (l *L2) Misses() uint64 { return l.misses }

// MissRate returns misses / accesses.
func (l *L2) MissRate() float64 {
	if l.accesses == 0 {
		return 0
	}
	return float64(l.misses) / float64(l.accesses)
}

// MergedInFlight returns the number of requests that merged into an
// in-flight fill instead of going to DRAM.
func (l *L2) MergedInFlight() uint64 { return l.mergedFly }

// MSHRStalls returns the number of accesses rejected because a bank's MSHR
// file or an entry's merge list was full.
func (l *L2) MSHRStalls() uint64 { return l.mshrStalls }

// PendingFills returns the number of outstanding MSHR entries across banks.
func (l *L2) PendingFills() int {
	n := 0
	for _, b := range l.banks {
		n += b.mshr.Len()
	}
	return n
}

// DRAM exposes the backing memory controller.
func (l *L2) DRAM() *dram.DRAM { return l.dram }

// String describes the configuration.
func (l *L2) String() string {
	return fmt.Sprintf("L2{%d KB, %d banks, %d-way, %d-cycle, %d MSHRs/bank}",
		l.cfg.TotalKB, l.cfg.Banks, l.cfg.Ways, l.cfg.LatencyCycles, l.cfg.PendingLimit)
}

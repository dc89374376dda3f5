package sim

import (
	"testing"

	"fuse/internal/config"
	"fuse/internal/l2"
	"fuse/internal/mem"
	"fuse/internal/trace"
)

// newMemSideSim builds a one-SM simulator whose memory side a test drives by
// hand; the SM itself is never cycled.
func newMemSideSim(t testing.TB) *Simulator {
	t.Helper()
	prof, _ := trace.ProfileByName("ATAX")
	s, err := New(config.FermiGPU(config.NewL1DConfig(config.L1SRAM)), trace.Synthetic(prof), Options{SMOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// popEvent pops the earliest heap event and returns a copy of it.
func popEvent(s *Simulator) event {
	slot := s.events.pop()
	defer s.events.release(slot)
	return s.events.slab[slot]
}

// readReq is a read of block tagged with id in its PC, which no retry or
// batching decision reads.
func readReq(block, id uint64) mem.Request {
	return mem.Request{Addr: block, Kind: mem.Read, PC: id}
}

// nackAt is a NACK retrying at cycle at whose version matches no set, so the
// retry is presented to the bank again.
func nackAt(at int64) l2.Result { return l2.Result{Outcome: l2.OutcomeBlocked, RetryAt: at} }

// batchIDs pops the next heap event, which must be a retry batch due at the
// given cycle, and returns its members' request tags in replay order.
func batchIDs(t *testing.T, s *Simulator, at int64) []uint64 {
	t.Helper()
	e := popEvent(s)
	if e.kind != evRetryBatch || e.at != at {
		t.Fatalf("popped kind %d at %d, want a retry batch at %d", e.kind, e.at, at)
	}
	var ids []uint64
	for i := e.batch; i >= 0; i = s.retries.members[i].next {
		ids = append(ids, s.retries.members[i].req.PC)
	}
	return ids
}

// TestRetryBatchJoinRule pins when a NACKed request joins the open retry
// batch: only for the same retry cycle and only while no sequence number has
// been consumed since the batch was scheduled — exactly when, as separate
// events, the requests would have held consecutive sequence numbers.
func TestRetryBatchJoinRule(t *testing.T) {
	s := newMemSideSim(t)
	s.queueRetry(0, 0, readReq(0x1000, 1), nackAt(100))
	s.queueRetry(0, 0, readReq(0x2000, 2), nackAt(100)) // joins
	s.queueRetry(0, 0, readReq(0x3000, 3), nackAt(100)) // joins
	s.eventSeq++                                        // e.g. a response scheduled or a tick armed
	s.queueRetry(0, 0, readReq(0x4000, 4), nackAt(100)) // a new batch: the sequence moved
	s.queueRetry(0, 0, readReq(0x5000, 5), nackAt(101)) // a new batch: another cycle
	s.queueRetry(0, 0, readReq(0x6000, 6), nackAt(100)) // a new batch: the open one retries at 101

	if n := s.events.len(); n != 4 {
		t.Fatalf("%d heap events for four batches", n)
	}
	want := []struct {
		at  int64
		ids []uint64
	}{{100, []uint64{1, 2, 3}}, {100, []uint64{4}}, {100, []uint64{6}}, {101, []uint64{5}}}
	for k, w := range want {
		got := batchIDs(t, s, w.at)
		if len(got) != len(w.ids) {
			t.Fatalf("batch %d holds requests %v, want %v", k, got, w.ids)
		}
		for i := range got {
			if got[i] != w.ids[i] {
				t.Fatalf("batch %d holds requests %v, want %v", k, got, w.ids)
			}
		}
	}
}

// TestRetryBatchYieldsToInheritedTick covers the batch split: a member's
// handling re-arms the controller tick at the batch's own cycle under an
// inherited sequence number below the batch's, so as separate events the
// tick would have fired before the remaining members. Here the tick
// completes the fill of block b; the batch's second member reads b and must
// therefore hit the filled line instead of merging into the in-flight fill.
func TestRetryBatchYieldsToInheritedTick(t *testing.T) {
	const b, c = 0x40000, 0x80000

	// A twin simulator finds the controller's event times up to and
	// including the one that completes b's fill.
	twin := newMemSideSim(t)
	twin.l2.Access(readReq(b, 1), 0)
	var times []int64
	for len(times) < 1000 {
		at := twin.l2.NextEventAt()
		if at < 0 {
			t.Fatal("the controller went idle before b's fill completed")
		}
		times = append(times, at)
		if len(twin.l2.Advance(at)) > 0 {
			break
		}
	}
	fillAt := times[len(times)-1]

	s := newMemSideSim(t)
	s.l2.Access(readReq(b, 1), 0)
	for _, at := range times[:len(times)-1] {
		s.l2.Advance(at)
	}
	if next := s.l2.NextEventAt(); next != fillAt {
		t.Fatalf("controller's next event at %d, want the fill at %d", next, fillAt)
	}
	// An abandoned tick at the fill cycle, older than anything below.
	s.now = fillAt
	s.eventSeq = 10
	s.staleTicks = append(s.staleTicks, staleTick{at: fillAt, seq: 1})
	s.queueRetry(0, s.l2.BankFor(c), readReq(c, 2), nackAt(fillAt))
	s.queueRetry(0, s.l2.BankFor(b), readReq(b, 3), nackAt(fillAt))
	if s.events.len() != 1 {
		t.Fatalf("the two retries should share one batch, heap holds %d events", s.events.len())
	}

	s.processEvents()
	if got := s.l2.MergedInFlight(); got != 0 {
		t.Fatalf("the read of b merged into its in-flight fill (%d merges): the tick did not fire between the batch members", got)
	}
	if got := s.l2.PendingFills(); got != 1 {
		t.Fatalf("%d fills pending, want c's alone: b's must have completed", got)
	}
	if got := s.l2.Hits(); got != 1 {
		t.Fatalf("%d L2 hits, want the read of b", got)
	}
}

// BenchmarkRetryBatch measures one retry batch of 64 reads NACKed by a bank
// whose MSHR file is full and stays unchanged, so every member is NACKed
// again and relinked into the next batch. In "renacked" every member's NACK
// still holds by version, the run the batch charges at once; in "presented"
// every member's version is stale, so each goes through L2.Access again.
func BenchmarkRetryBatch(b *testing.B) {
	for _, c := range []struct {
		name  string
		stale bool
	}{{"renacked", false}, {"presented", true}} {
		b.Run(c.name, func(b *testing.B) { benchRetryBatch(b, c.stale) })
	}
}

func benchRetryBatch(b *testing.B, stale bool) {
	const members = 64
	s := newMemSideSim(b)
	stride := uint64(s.l2.Banks()) * mem.BlockSize
	for i := uint64(0); i < uint64(s.l2.Config().PendingLimit); i++ {
		if res := s.l2.Access(readReq(i*stride, i), 0); res.Outcome != l2.OutcomeMiss {
			b.Fatalf("filling the MSHR file: read %d %v", i, res.Outcome)
		}
	}
	s.armMemTick(0) // armed before the NACKs, so they join one batch
	for i := uint64(0); i < members; i++ {
		req := readReq((1000+i)*stride, 1000+i)
		s.reqAtL2(1, 0, 0, &req)
	}
	if s.events.len() != 1 {
		b.Fatalf("%d heap events, want the one batch of all %d NACKed reads", s.events.len(), members)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := popEvent(s)
		if stale {
			for m := e.batch; m >= 0; m = s.retries.members[m].next {
				s.retries.members[m].ver = 0 // matches no set
			}
		}
		s.retryBatch(e.at, e.seq, e.batch)
	}
	b.StopTimer()
	if got := s.l2.MSHRStalls(); got != uint64(members*(b.N+1)) {
		b.Fatalf("%d NACKs, want %d", got, members*(b.N+1))
	}
	if got := s.l2.Accesses(); got != uint64(s.l2.Config().PendingLimit) {
		b.Fatalf("%d bank accesses: a NACK took the port", got)
	}
}

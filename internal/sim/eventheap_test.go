package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"fuse/internal/mem"
)

// TestEventHeapMatchesSortedOrder interleaves pushes and pops on the event
// calendar and checks every pop against a reference kept sorted by
// (at, seq). Pushes follow the calendar's contract: each lands at or after
// the last popped time, a few far enough beyond it that the ring has to
// grow, and some carry an older sequence number than events already queued
// for their cycle, as a retry batch's re-pushed remainder does. The order
// must match, each event must come back with its own payload even though
// slab slots are recycled, and the slab must never grow beyond the peak
// number of live events.
func TestEventHeapMatchesSortedOrder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xE7E7))
		var q eventQueue
		var ref []event
		var seq uint64 // pushes take even sequence numbers
		older := map[uint64]bool{}
		last := int64(0)
		peak, pops, olderPushes := 0, 0, 0
		for i := 0; i < 20000; i++ {
			if len(ref) == 0 || (len(ref) < 512 && rng.IntN(2) == 0) {
				// Few distinct times, so ties on `at` are common and the
				// seq tie-break is exercised.
				at := last + int64(rng.IntN(64))
				if rng.IntN(100) == 0 {
					at = last + calendarWidth + int64(rng.IntN(4000))
				}
				seq += 2
				s := seq
				if rng.IntN(8) == 0 && seq > 2 {
					// An older, unused (odd) sequence number.
					if o := uint64(rng.IntN(int(seq/2)))*2 + 1; !older[o] {
						older[o] = true
						s = o
						olderPushes++
					}
				}
				e := event{
					at:    at,
					seq:   s,
					kind:  eventKind(rng.IntN(2)),
					sm:    rng.IntN(15),
					bank:  rng.IntN(12),
					block: rng.Uint64(),
					req:   mem.Request{Addr: rng.Uint64(), PC: rng.Uint64(), Issue: int64(s)},
				}
				q.push(e)
				pos, _ := slices.BinarySearchFunc(ref, e, eventOrder)
				ref = slices.Insert(ref, pos, e)
				peak = max(peak, len(ref))
			} else {
				if head := q.peek(); head.at != ref[0].at || head.seq != ref[0].seq {
					t.Fatalf("seed %d op %d: head (%d,%d), reference (%d,%d)", seed, i, head.at, head.seq, ref[0].at, ref[0].seq)
				}
				slot := q.pop()
				got := q.slab[slot]
				q.release(slot)
				got.next = ref[0].next // the bucket link is the queue's own
				if got != ref[0] {
					t.Fatalf("seed %d op %d: popped %+v, reference %+v", seed, i, got, ref[0])
				}
				last = got.at
				ref = ref[1:]
				pops++
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, i, q.len(), len(ref))
			}
			if len(q.slab) > peak {
				t.Fatalf("seed %d op %d: slab holds %d slots for a peak of %d live events", seed, i, len(q.slab), peak)
			}
		}
		if pops < 1000 || olderPushes < 100 {
			t.Fatalf("seed %d: only %d pops and %d older-seq pushes", seed, pops, olderPushes)
		}
		if len(q.head) <= calendarWidth {
			t.Fatalf("seed %d: the ring never grew past %d buckets", seed, len(q.head))
		}
	}
}

// TestEventQueuePushBeforeLastPopPanics pins the calendar's contract:
// scheduling an event before the last popped time is a bug, not a reorder.
func TestEventQueuePushBeforeLastPopPanics(t *testing.T) {
	var q eventQueue
	q.push(event{at: 10, seq: 1})
	q.push(event{at: 20, seq: 2})
	q.release(q.pop())
	q.push(event{at: 10, seq: 3}) // at the last popped time: allowed
	defer func() {
		if recover() == nil {
			t.Fatal("push before the last popped time did not panic")
		}
	}()
	q.push(event{at: 9, seq: 4})
}

// eventOrder sorts events by (at, seq).
func eventOrder(a, b event) int {
	if a.at != b.at {
		return int(a.at - b.at)
	}
	return int(a.seq - b.seq)
}

// BenchmarkEventHeap measures one push and one pop on the event calendar
// holding 256 pending events, about the memory-side backlog of a full-scale
// run.
func BenchmarkEventHeap(b *testing.B) {
	const live = 256
	rng := rand.New(rand.NewPCG(1, 2))
	var q eventQueue
	var seq uint64
	for ; seq < live; seq++ {
		q.push(event{at: int64(rng.IntN(1000)), seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := q.pop()
		e := &q.slab[slot]
		q.release(slot)
		seq++
		q.push(event{at: e.at + int64(rng.IntN(1000)), seq: seq, req: e.req})
	}
}

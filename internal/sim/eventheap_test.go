package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"fuse/internal/mem"
)

// TestEventHeapMatchesSortedOrder interleaves pushes and pops on the event
// heap and checks every pop against a reference kept sorted by (at, seq):
// the order must match, each event must come back with its own payload even
// though slab slots are recycled, and the slab must never grow beyond the
// peak number of live events.
func TestEventHeapMatchesSortedOrder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xE7E7))
		var q eventHeap
		var ref []event
		var seq uint64
		peak, pops := 0, 0
		for i := 0; i < 20000; i++ {
			if len(ref) == 0 || (len(ref) < 512 && rng.IntN(2) == 0) {
				seq++
				e := event{
					// Few distinct times, so ties on `at` are common and
					// the seq tie-break is exercised.
					at:    int64(rng.IntN(64)),
					seq:   seq,
					kind:  eventKind(rng.IntN(2)),
					sm:    rng.IntN(15),
					bank:  rng.IntN(12),
					block: rng.Uint64(),
					req:   mem.Request{Addr: rng.Uint64(), PC: rng.Uint64(), ID: seq},
				}
				q.push(e)
				at, _ := slices.BinarySearchFunc(ref, e, eventOrder)
				ref = slices.Insert(ref, at, e)
				peak = max(peak, len(ref))
			} else {
				if head := q.head(); head.at != ref[0].at || head.seq != ref[0].seq {
					t.Fatalf("seed %d op %d: head (%d,%d), reference (%d,%d)", seed, i, head.at, head.seq, ref[0].at, ref[0].seq)
				}
				slot := q.pop()
				got := q.slab[slot]
				q.release(slot)
				if got != ref[0] {
					t.Fatalf("seed %d op %d: popped %+v, reference %+v", seed, i, got, ref[0])
				}
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
		if pops < 1000 {
			t.Fatalf("seed %d: only %d pops", seed, pops)
		}
	}
}

// eventOrder sorts events by (at, seq).
func eventOrder(a, b event) int {
	if a.at != b.at {
		return int(a.at - b.at)
	}
	return int(a.seq - b.seq)
}

// BenchmarkEventHeap measures one push and one pop on a heap holding 256
// pending events, about the memory-side backlog of a full-scale run.
func BenchmarkEventHeap(b *testing.B) {
	const live = 256
	rng := rand.New(rand.NewPCG(1, 2))
	var q eventHeap
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

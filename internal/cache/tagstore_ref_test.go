package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fuse/internal/mem"
)

// refTagStore is the linear-scan tag store the indexed TagStore replaced:
// every search walks the set from way 0 and takes the first match, so when a
// block is held twice the lowest way wins, and every free-way search scans
// the set. The differential tests below hold the indexed store to it
// operation by operation.
type refTagStore struct {
	sets  int
	lines [][]Line
	repl  []*refReplacement
}

func newRefTagStore(sets, ways int, kind ReplacementKind) *refTagStore {
	r := &refTagStore{sets: sets}
	for s := 0; s < sets; s++ {
		r.lines = append(r.lines, make([]Line, ways))
		r.repl = append(r.repl, &refReplacement{kind: kind})
	}
	return r
}

// refReplacement is one set's victim-selection state as the store kept it
// before the linked lists: LRU and FIFO hold an order slice of way indices
// (least recent or oldest first) that every update searches and shifts.
type refReplacement struct {
	kind  ReplacementKind
	order []int
}

func (s *refReplacement) remove(way int) {
	for i, w := range s.order {
		if w == way {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

func (s *refReplacement) onInsert(way int) {
	s.remove(way)
	s.order = append(s.order, way)
}

func (s *refReplacement) onAccess(way int) {
	if s.kind == LRU {
		s.remove(way)
		s.order = append(s.order, way)
	}
}

func (s *refReplacement) onInvalidate(way int) { s.remove(way) }

func (s *refReplacement) victimAll() int {
	if len(s.order) > 0 {
		return s.order[0]
	}
	return 0
}

func (r *refTagStore) set(block uint64) int { return int(mem.BlockIndex(block)) % r.sets }

func (r *refTagStore) find(block uint64) (set, way int) {
	set = r.set(block)
	for w, l := range r.lines[set] {
		if l.Valid && l.Block == block {
			return set, w
		}
	}
	return set, -1
}

func (r *refTagStore) freeWay(set int) int {
	for w, l := range r.lines[set] {
		if !l.Valid {
			return w
		}
	}
	return -1
}

func (r *refTagStore) lookup(block uint64) (Line, int, bool) {
	set, w := r.find(block)
	if w < 0 {
		return Line{}, -1, false
	}
	return r.lines[set][w], w, true
}

func (r *refTagStore) touch(block uint64, write bool) (Line, bool) {
	set, w := r.find(block)
	if w < 0 {
		return Line{}, false
	}
	l := &r.lines[set][w]
	if write {
		l.Writes++
		l.Dirty = true
	}
	r.repl[set].onAccess(w)
	return *l, true
}

func (r *refTagStore) insert(block, pc uint64, write bool, level mem.ReadLevel) (evicted, line Line) {
	set := r.set(block)
	way := r.freeWay(set)
	if way < 0 {
		way = r.repl[set].victimAll()
		evicted = r.lines[set][way]
		r.repl[set].onInvalidate(way)
	}
	l := Line{Valid: true, Block: block, PC: pc, Level: level}
	if write {
		l.Writes, l.Dirty = 1, true
	}
	r.lines[set][way] = l
	r.repl[set].onInsert(way)
	return evicted, l
}

func (r *refTagStore) invalidate(block uint64) Line {
	set, w := r.find(block)
	if w < 0 {
		return Line{}
	}
	old := r.lines[set][w]
	r.lines[set][w] = Line{}
	r.repl[set].onInvalidate(w)
	return old
}

func (r *refTagStore) victimFor(block uint64) Line {
	set := r.set(block)
	if r.freeWay(set) >= 0 {
		return Line{}
	}
	return r.lines[set][r.repl[set].victimAll()]
}

func (r *refTagStore) occupancy() int {
	n := 0
	for _, set := range r.lines {
		for _, l := range set {
			if l.Valid {
				n++
			}
		}
	}
	return n
}

// checkSameState compares every way of both stores.
func checkSameState(t *testing.T, step string, got *TagStore, want *refTagStore) {
	t.Helper()
	if got.Occupancy() != want.occupancy() {
		t.Fatalf("%s: occupancy %d, reference %d", step, got.Occupancy(), want.occupancy())
	}
	for s := range want.lines {
		for w := range want.lines[s] {
			if g := got.lines[s*got.ways+w]; g != want.lines[s][w] {
				t.Fatalf("%s: set %d way %d holds %+v, reference %+v", step, s, w, g, want.lines[s][w])
			}
		}
	}
}

// TestTagStoreMatchesLinearScanReference drives the indexed store and the
// linear-scan reference through the same seeded random operation sequences,
// including unconditional inserts of blocks already held, and requires every
// result and the full way-by-way state to agree after each operation.
func TestTagStoreMatchesLinearScanReference(t *testing.T) {
	// Fully associative and set-associative, indexed and scanned.
	geometries := []struct{ sets, ways int }{{1, 512}, {4, indexMinWays}, {64, 4}}
	kinds := []ReplacementKind{LRU, FIFO}
	for _, g := range geometries {
		for _, kind := range kinds {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%dx%d/%s/seed=%d", g.sets, g.ways, kind, seed), func(t *testing.T) {
					diffTagStore(t, g.sets, g.ways, kind, seed)
				})
			}
		}
	}
}

func diffTagStore(t *testing.T, sets, ways int, kind ReplacementKind, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xF05E))
	got := NewTagStore(sets, ways, kind)
	want := newRefTagStore(sets, ways, kind)
	// A universe of twice the capacity keeps the store full most of the
	// time while still hitting often.
	universe := 2 * sets * ways
	dupInserts := 0
	for i := 0; i < 20000; i++ {
		block := blockAddr(rng.IntN(universe))
		write := rng.IntN(4) == 0
		var step string
		switch op := rng.IntN(10); op {
		case 0, 1: // Lookup
			step = fmt.Sprintf("op %d Lookup(%#x)", i, block)
			gl, gw, gh := got.Lookup(block)
			wl, ww, wh := want.lookup(block)
			if gh != wh || gw != ww || (gh && *gl != wl) {
				t.Fatalf("%s: got way %d hit %v, reference way %d hit %v", step, gw, gh, ww, wh)
			}
			if got.Probe(block) != wh {
				t.Fatalf("%s: Probe disagrees with the reference", step)
			}
		case 2, 3: // Touch
			step = fmt.Sprintf("op %d Touch(%#x)", i, block)
			gl, gh := got.Touch(block, write)
			wl, wh := want.touch(block, write)
			if gh != wh || (gh && *gl != wl) {
				t.Fatalf("%s: got hit %v, reference hit %v", step, gh, wh)
			}
		case 4, 5: // Insert on miss, the caches' usual pattern
			step = fmt.Sprintf("op %d InsertOnMiss(%#x)", i, block)
			if _, _, hit := want.lookup(block); hit {
				got.Touch(block, write)
				want.touch(block, write)
				break
			}
			fallthrough
		case 6: // Unconditional insert: may create a second copy
			step = fmt.Sprintf("op %d Insert(%#x)", i, block)
			if _, _, hit := want.lookup(block); hit {
				dupInserts++
			}
			pc := rng.Uint64()
			level := mem.ReadLevel(rng.IntN(3))
			gev, gl := got.Insert(block, pc, write, level)
			wev, wl := want.insert(block, pc, write, level)
			if gev != wev || *gl != wl {
				t.Fatalf("%s: evicted %+v / line %+v, reference %+v / %+v", step, gev, *gl, wev, wl)
			}
		case 7, 8: // Invalidate
			step = fmt.Sprintf("op %d Invalidate(%#x)", i, block)
			if g, w := got.Invalidate(block), want.invalidate(block); g != w {
				t.Fatalf("%s: removed %+v, reference %+v", step, g, w)
			}
		case 9: // VictimFor
			step = fmt.Sprintf("op %d VictimFor(%#x)", i, block)
			if g, w := got.VictimFor(block), want.victimFor(block); g != w {
				t.Fatalf("%s: victim %+v, reference %+v", step, g, w)
			}
		}
		if i%97 == 0 || i < 2*sets*ways {
			checkSameState(t, step, got, want)
		}
	}
	checkSameState(t, "end", got, want)
	if dupInserts == 0 {
		t.Fatalf("the sequence never inserted a block already held")
	}
}

// TestTagStoreDuplicateCopies pins the two duplicate-copy rules: the
// lowest-way copy is the one every search finds, and removing it exposes the
// next copy rather than losing the block.
func TestTagStoreDuplicateCopies(t *testing.T) {
	ts := NewTagStore(1, indexMinWays, LRU) // an indexed store
	x, y, z := blockAddr(1), blockAddr(2), blockAddr(3)
	ts.Insert(x, 0, false, mem.WORM) // way 0
	ts.Insert(y, 0, false, mem.WORM) // way 1
	ts.Insert(z, 0, false, mem.WORM) // way 2
	ts.Invalidate(x)                 // frees way 0

	// A second copy of y lands below the first one and takes over searches.
	ts.Insert(y, 0xA, true, mem.WORM)
	if _, way, hit := ts.Lookup(y); !hit || way != 0 {
		t.Fatalf("lower copy should win: Lookup(y) way %d hit %v, want way 0", way, hit)
	}
	// A third copy lands above both and changes nothing.
	ts.Insert(y, 0xB, false, mem.WORM) // way 3
	if l, way, _ := ts.Lookup(y); way != 0 || l.PC != 0xA {
		t.Fatalf("higher copy must not shadow the lowest: way %d pc %#x", way, l.PC)
	}

	// Removing the lowest copy exposes the next-lowest, then the last one.
	for _, wantWay := range []int{1, 3} {
		ts.Invalidate(y)
		if _, way, hit := ts.Lookup(y); !hit || way != wantWay {
			t.Fatalf("after removing a copy: Lookup(y) way %d hit %v, want way %d", way, hit, wantWay)
		}
	}
	ts.Invalidate(y)
	if ts.Probe(y) {
		t.Fatalf("every copy of y was removed but it is still found")
	}
	if _, _, hit := ts.Lookup(z); !hit || ts.Occupancy() != 1 {
		t.Fatalf("unrelated block lost: occupancy %d", ts.Occupancy())
	}
}

// TestTagStoreFullSetChurnMatchesReference keeps the store full for the
// whole run, so nearly every insert takes the victim path: a 512-way FIFO
// set (the STT-MRAM bank) and 64 4-way LRU sets. Invalidating held blocks
// opens holes in the middle of the replacement lists, which the next insert
// refills; touches reorder the LRU lists. Every eviction and, periodically,
// the whole state must match the slice-based reference.
func TestTagStoreFullSetChurnMatchesReference(t *testing.T) {
	for _, c := range []struct {
		sets, ways int
		kind       ReplacementKind
	}{{1, 512, FIFO}, {64, 4, LRU}} {
		t.Run(fmt.Sprintf("%dx%d/%s", c.sets, c.ways, c.kind), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 0xC4A2))
			got := NewTagStore(c.sets, c.ways, c.kind)
			want := newRefTagStore(c.sets, c.ways, c.kind)
			capacity := c.sets * c.ways
			next := 0 // blocks are never reused, so every insert misses
			for ; next < capacity; next++ {
				got.Insert(blockAddr(next), 0, false, mem.WORM)
				want.insert(blockAddr(next), 0, false, mem.WORM)
			}
			evictions := 0
			for i := 0; i < 20000; i++ {
				// One of the more recently inserted blocks, most likely
				// still held.
				held := blockAddr(next - 1 - rng.IntN(capacity/2))
				step := fmt.Sprintf("op %d", i)
				switch rng.IntN(8) {
				case 0:
					write := rng.IntN(4) == 0
					gl, gh := got.Touch(held, write)
					wl, wh := want.touch(held, write)
					if gh != wh || (gh && *gl != wl) {
						t.Fatalf("%s: Touch hit %v, reference hit %v", step, gh, wh)
					}
				case 1:
					if g, w := got.Invalidate(held), want.invalidate(held); g != w {
						t.Fatalf("%s: Invalidate removed %+v, reference %+v", step, g, w)
					}
				}
				block := blockAddr(next)
				next++
				gev, _ := got.Insert(block, uint64(i), false, mem.WORM)
				wev, _ := want.insert(block, uint64(i), false, mem.WORM)
				if gev != wev {
					t.Fatalf("%s: Insert evicted %+v, reference %+v", step, gev, wev)
				}
				if gev.Valid {
					evictions++
				}
				if i%257 == 0 {
					checkSameState(t, step, got, want)
				}
			}
			checkSameState(t, "end", got, want)
			if evictions < 15000 {
				t.Fatalf("only %d of 20000 inserts evicted: the store did not stay full", evictions)
			}
		})
	}
}

package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"fuse/internal/mem"
)

func blockAddr(i int) uint64 { return uint64(i) * mem.BlockSize }

func TestTagStoreBasicInsertLookup(t *testing.T) {
	ts := NewTagStore(4, 2, LRU)
	if ts.Sets() != 4 || ts.Ways() != 2 || ts.Blocks() != 8 {
		t.Fatalf("geometry mismatch: %d sets %d ways", ts.Sets(), ts.Ways())
	}
	if ts.FullyAssociative() {
		t.Errorf("4-set store should not be fully associative")
	}
	ev, line := ts.Insert(blockAddr(1), 0x100, false, mem.WORM)
	if ev.Valid {
		t.Errorf("unexpected eviction on empty store")
	}
	if !line.Valid || line.Dirty || line.Block != blockAddr(1) || line.PC != 0x100 || line.Level != mem.WORM || line.Writes != 0 {
		t.Errorf("inserted line malformed: %+v", line)
	}
	got, way, hit := ts.Lookup(blockAddr(1))
	if !hit || way < 0 || got.Block != blockAddr(1) {
		t.Errorf("Lookup failed after insert")
	}
	if ts.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", ts.Occupancy())
	}
	if _, _, hit := ts.Lookup(blockAddr(2)); hit {
		t.Errorf("lookup of absent block should miss")
	}
	if !ts.Probe(blockAddr(1)) || ts.Probe(blockAddr(99)) {
		t.Errorf("Probe results wrong")
	}
}

func TestTagStoreTouchUpdatesCounters(t *testing.T) {
	ts := NewTagStore(2, 2, LRU)
	ts.Insert(blockAddr(4), 0, true, mem.WriteMultiple)
	l, hit := ts.Touch(blockAddr(4), false)
	if !hit || l.Writes != 1 || !l.Dirty {
		t.Errorf("Touch read failed: %+v", l)
	}
	l, hit = ts.Touch(blockAddr(4), true)
	if !hit || l.Writes != 2 || !l.Dirty {
		t.Errorf("Touch write failed: %+v", l)
	}
	if _, hit := ts.Touch(blockAddr(5), false); hit {
		t.Errorf("Touch of absent block should miss")
	}
}

// TestLineIs32Bytes pins the packed Line layout: tag-store victim copies and
// set scans move whole Lines, so the size is a host-performance property.
func TestLineIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Errorf("Line is %d bytes, want 32", got)
	}
}

func TestTagStoreLRUEviction(t *testing.T) {
	// Single set, 2 ways, LRU: after touching A, inserting C should evict B.
	ts := NewTagStore(1, 2, LRU)
	ts.Insert(blockAddr(1), 0, false, mem.WORM) // A
	ts.Insert(blockAddr(2), 0, false, mem.WORM) // B
	ts.Touch(blockAddr(1), false)               // A is now MRU
	victim := ts.VictimFor(blockAddr(3))
	if !victim.Valid || victim.Block != blockAddr(2) {
		t.Errorf("VictimFor should pick B, got %+v", victim)
	}
	ev, _ := ts.Insert(blockAddr(3), 0, false, mem.WORM)
	if !ev.Valid || ev.Block != blockAddr(2) {
		t.Errorf("LRU should evict B, evicted %+v", ev)
	}
	if !ts.Probe(blockAddr(1)) || !ts.Probe(blockAddr(3)) || ts.Probe(blockAddr(2)) {
		t.Errorf("store contents wrong after eviction")
	}
}

func TestTagStoreFIFOEviction(t *testing.T) {
	// FIFO ignores touches: oldest insertion is evicted regardless of hits.
	ts := NewTagStore(1, 2, FIFO)
	ts.Insert(blockAddr(1), 0, false, mem.WORM)
	ts.Insert(blockAddr(2), 0, false, mem.WORM)
	ts.Touch(blockAddr(1), false)
	ev, _ := ts.Insert(blockAddr(3), 0, false, mem.WORM)
	if !ev.Valid || ev.Block != blockAddr(1) {
		t.Errorf("FIFO should evict the oldest block 1, evicted %+v", ev)
	}
}

func TestTagStoreInvalidate(t *testing.T) {
	ts := NewTagStore(2, 2, LRU)
	ts.Insert(blockAddr(1), 0, true, mem.WriteMultiple)
	old := ts.Invalidate(blockAddr(1))
	if !old.Valid || !old.Dirty {
		t.Errorf("Invalidate should return the dirty line, got %+v", old)
	}
	if ts.Occupancy() != 0 {
		t.Errorf("occupancy after invalidate = %d", ts.Occupancy())
	}
	if none := ts.Invalidate(blockAddr(1)); none.Valid {
		t.Errorf("second invalidate should be a no-op")
	}
}

func TestTagStoreSetMapping(t *testing.T) {
	ts := NewTagStore(64, 4, LRU)
	// Blocks that differ only above the set index bits must map to the same set.
	a := blockAddr(5)
	b := blockAddr(5 + 64)
	if ts.SetIndex(a) != ts.SetIndex(b) {
		t.Errorf("blocks 5 and 69 should map to the same set")
	}
	if ts.SetIndex(blockAddr(5)) == ts.SetIndex(blockAddr(6)) {
		t.Errorf("adjacent blocks should map to different sets")
	}
}

func TestTagStoreConflictMissesVsFullyAssociative(t *testing.T) {
	// A classic conflict pattern: blocks that all map to the same set of a
	// set-associative cache fit comfortably in a fully-associative one.
	setAssoc := NewTagStore(64, 4, LRU)
	fullAssoc := NewTagStore(1, 256, FIFO)
	conflicting := make([]uint64, 8)
	for i := range conflicting {
		conflicting[i] = blockAddr(3 + 64*i) // same set index (3) in the 64-set store
	}
	missSA, missFA := 0, 0
	for round := 0; round < 4; round++ {
		for _, b := range conflicting {
			if _, hit := setAssoc.Touch(b, false); !hit {
				missSA++
				setAssoc.Insert(b, 0, false, mem.WORM)
			}
			if _, hit := fullAssoc.Touch(b, false); !hit {
				missFA++
				fullAssoc.Insert(b, 0, false, mem.WORM)
			}
		}
	}
	if missFA != len(conflicting) {
		t.Errorf("fully-associative store should only take compulsory misses, got %d", missFA)
	}
	if missSA <= missFA {
		t.Errorf("set-associative store should suffer conflict misses: SA=%d FA=%d", missSA, missFA)
	}
}

func TestTagStoreForEach(t *testing.T) {
	ts := NewTagStore(4, 2, LRU)
	for i := 0; i < 6; i++ {
		ts.Insert(blockAddr(i), 0, false, mem.WORM)
	}
	count := 0
	ts.ForEach(func(l *Line) { count++ })
	if count != 6 {
		t.Errorf("ForEach visited %d lines, want 6", count)
	}
	if ts.Ways() != 2 || ts.Sets() != 4 {
		t.Errorf("geometry = %dx%d, want 4x2", ts.Sets(), ts.Ways())
	}
}

func TestTagStorePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for zero sets")
		}
	}()
	NewTagStore(0, 4, LRU)
}

func TestTagStoreOccupancyInvariant(t *testing.T) {
	// Property: occupancy always equals the number of valid lines and never
	// exceeds capacity, under random insert/invalidate sequences.
	prop := func(ops []uint16) bool {
		ts := NewTagStore(8, 2, LRU)
		for _, op := range ops {
			b := blockAddr(int(op % 64))
			if op%3 == 0 {
				ts.Invalidate(b)
			} else {
				ts.Insert(b, 0, op%2 == 0, mem.WORM)
			}
			valid := 0
			ts.ForEach(func(l *Line) { valid++ })
			if valid != ts.Occupancy() || ts.Occupancy() > ts.Blocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTagStoreNoDuplicateBlocks(t *testing.T) {
	// Property: a block address never occupies two ways at once.
	prop := func(ops []uint16) bool {
		ts := NewTagStore(4, 4, FIFO)
		for _, op := range ops {
			b := blockAddr(int(op % 32))
			if _, hit := ts.Touch(b, false); !hit {
				ts.Insert(b, 0, false, mem.WORM)
			}
			seen := map[uint64]int{}
			dup := false
			ts.ForEach(func(l *Line) {
				seen[l.Block]++
				if seen[l.Block] > 1 {
					dup = true
				}
			})
			if dup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReplacementKindString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Errorf("unexpected replacement kind strings")
	}
	if ReplacementKind(9).String() == "" {
		t.Errorf("unknown kind should still render")
	}
}

// BenchmarkTagStoreLookup measures one tag search on the 512-way
// fully-associative STT-MRAM bank, full, for a held block and an absent one.
func BenchmarkTagStoreLookup(b *testing.B) {
	const ways = 512
	ts := NewTagStore(1, ways, FIFO)
	for i := 0; i < ways; i++ {
		ts.Insert(blockAddr(i), 0, false, mem.WORM)
	}
	for _, c := range []struct {
		name string
		base int
	}{{"hit", 0}, {"miss", ways}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts.Lookup(blockAddr(c.base + i%ways))
			}
		})
	}
}

// BenchmarkTagStoreInsertFullFIFO measures one insert into the full 512-way
// fully-associative FIFO set of the STT-MRAM bank: every insert evicts the
// oldest block.
func BenchmarkTagStoreInsertFullFIFO(b *testing.B) {
	const ways = 512
	ts := NewTagStore(1, ways, FIFO)
	for i := 0; i < ways; i++ {
		ts.Insert(blockAddr(i), 0, false, mem.WORM)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Insert(blockAddr(ways+i), 0, false, mem.WORM)
	}
}

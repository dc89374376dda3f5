package cbf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertTestRemove(t *testing.T) {
	f := NewNVMCBF(1, 64, 3)
	if f.Test(42) {
		t.Errorf("empty filter should report absent")
	}
	f.Insert(42)
	if !f.Test(42) {
		t.Errorf("inserted element should test positive")
	}
	f.Remove(42)
	if f.Test(42) {
		t.Errorf("removed element should test negative (no other elements present)")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Property: an element that is currently inserted always tests positive,
	// regardless of what else was inserted or removed.
	prop := func(inserted []uint64, removed []uint64) bool {
		f := NewNVMCBF(1, 128, 3)
		present := map[uint64]int{}
		for _, x := range inserted {
			f.Insert(x)
			present[x]++
		}
		for _, x := range removed {
			if present[x] > 0 { // only remove what is actually present
				f.Remove(x)
				present[x]--
			}
		}
		for x, n := range present {
			if n > 0 && !f.Test(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCounterSaturationTracked(t *testing.T) {
	f := NewNVMCBF(1, 4, 1) // tiny: 4 slots, 2-bit counters saturate at 3
	for i := 0; i < 40; i++ {
		f.Insert(7) // same element over and over
	}
	// The counters saturate at the 2-bit maximum instead of wrapping, so
	// the element still tests present.
	if got := f.counters[f.key(0, 0, 7)]; got != 3 || !f.Test(7) {
		t.Errorf("counter = %d after 40 inserts, want saturated at 3 (present %v)", got, f.Test(7))
	}
}

// falsePositiveRate inserts `members` random elements into a filter, then
// tests `probes` random elements and returns the share of positives for
// elements that are not members, counted against the test's own set.
func falsePositiveRate(f *NVMCBF, seed int64, members, probes int) float64 {
	rng := rand.New(rand.NewSource(seed))
	in := map[uint64]bool{}
	for i := 0; i < members; i++ {
		x := rng.Uint64()
		in[x] = true
		f.Insert(x)
	}
	fp := 0
	for i := 0; i < probes; i++ {
		if x := rng.Uint64(); f.Test(x) && !in[x] {
			fp++
		}
	}
	return float64(fp) / float64(probes)
}

func TestFalsePositiveAccounting(t *testing.T) {
	// A deliberately tiny filter: 4 members set at most half of its 8
	// counters, so absent elements often test positive, but not always.
	r := falsePositiveRate(NewNVMCBF(1, 8, 1), 1, 4, 1000)
	if r <= 0 || r >= 1 {
		t.Errorf("false positive rate of a tiny 8-slot filter = %v, want within (0, 1)", r)
	}
	if r := falsePositiveRate(NewNVMCBF(1, 8, 1), 1, 0, 1000); r != 0 {
		t.Errorf("an empty filter answered %v of its tests positive", r)
	}
}

func TestMoreHashesReduceFalsePositives(t *testing.T) {
	// Reproduces the Figure 20a trend: with a fixed population, more hash
	// functions reduce the false-positive rate (until saturation).
	r1 := falsePositiveRate(NewNVMCBF(1, 128, 1), 7, 12, 20000)
	r3 := falsePositiveRate(NewNVMCBF(1, 128, 3), 7, 12, 20000)
	if r3 >= r1 {
		t.Errorf("3 hash functions should have fewer false positives than 1: %v vs %v", r3, r1)
	}
}

func TestMoreSlotsReduceFalsePositives(t *testing.T) {
	// Figure 20b trend: larger counter arrays reduce false positives.
	r32 := falsePositiveRate(NewNVMCBF(1, 32, 3), 11, 12, 20000)
	r128 := falsePositiveRate(NewNVMCBF(1, 128, 3), 11, 12, 20000)
	if r128 >= r32 && r32 != 0 {
		t.Errorf("128 slots should have fewer false positives than 32: %v vs %v", r128, r32)
	}
}

func TestClampedConstruction(t *testing.T) {
	f := NewNVMCBF(0, 0, 0)
	if f.count != 1 || f.slots != 1 || f.hashes != 1 {
		t.Errorf("constructor should clamp to minimum sizes: %v", f)
	}
	f2 := NewNVMCBF(1, 16, 100)
	if f2.hashes != MaxHashFunctions {
		t.Errorf("hashes should clamp to %d, got %d", MaxHashFunctions, f2.hashes)
	}
	f2.Insert(3)
	if !f2.Test(3) {
		t.Errorf("clamped filter should still work")
	}
}

func TestNVMCBFPartitioning(t *testing.T) {
	n := NewNVMCBF(128, 16, 3)
	if n.AreaBytes() != 512 {
		t.Errorf("paper configuration should occupy 512 bytes, got %d", n.AreaBytes())
	}
	// The same block always maps to the same partition.
	for i := 0; i < 100; i++ {
		b := uint64(i * 128)
		p1 := n.PartitionFor(b)
		p2 := n.PartitionFor(b)
		if p1 != p2 {
			t.Fatalf("partition function not deterministic")
		}
		if p1 < 0 || p1 >= n.count {
			t.Fatalf("partition out of range: %d", p1)
		}
	}
	// A block sets counters only in its own region's filter.
	n.Insert(0x1000)
	lo := n.PartitionFor(0x1000) * n.slots
	for i, c := range n.counters {
		if c != 0 && (i < lo || i >= lo+n.slots) {
			t.Fatalf("inserting into region %d set counter %d, outside [%d, %d)", n.PartitionFor(0x1000), i, lo, lo+n.slots)
		}
	}
	if !n.Test(0x1000) {
		t.Errorf("inserted block should test positive")
	}
	n.Remove(0x1000)
	if n.Test(0x1000) {
		t.Errorf("removed block should test negative")
	}
	if n.String() == "" {
		t.Errorf("String should describe the configuration")
	}
	if n.TestLatency < 1 {
		t.Errorf("membership test should cost at least one cycle")
	}
}

func TestNVMCBFDistributesAcrossFilters(t *testing.T) {
	n := NewNVMCBF(16, 16, 3)
	seen := map[int]bool{}
	for i := 0; i < 512; i++ {
		seen[n.PartitionFor(uint64(i)*128)] = true
	}
	if len(seen) < 12 {
		t.Errorf("partition function should spread blocks over most filters, hit %d/16", len(seen))
	}
}

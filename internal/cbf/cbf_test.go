package cbf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertTestRemove(t *testing.T) {
	f := New(64, 3, 2)
	if f.Slots() != 64 || f.Hashes() != 3 {
		t.Fatalf("config mismatch: %d slots %d hashes", f.Slots(), f.Hashes())
	}
	if f.Test(42) {
		t.Errorf("empty filter should report absent")
	}
	f.Insert(42)
	if !f.Test(42) {
		t.Errorf("inserted element should test positive")
	}
	if !f.Contains(42) {
		t.Errorf("ground truth should contain 42")
	}
	f.Remove(42)
	if f.Test(42) {
		t.Errorf("removed element should test negative (no other elements present)")
	}
	if f.Contains(42) {
		t.Errorf("ground truth should no longer contain 42")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Property: an element that is currently inserted always tests positive,
	// regardless of what else was inserted or removed.
	prop := func(inserted []uint64, removed []uint64) bool {
		f := New(128, 3, 4)
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
	f := New(4, 1, 2) // tiny: 4 slots, 2-bit counters saturate at 3
	for i := 0; i < 40; i++ {
		f.Insert(7) // same element over and over
	}
	// The counters saturate at the 2-bit maximum instead of wrapping, so
	// the element still tests present.
	if got := f.counters[f.key(0, 7)]; got != 3 || !f.Test(7) {
		t.Errorf("counter = %d after 40 inserts, want saturated at 3 (present %v)", got, f.Test(7))
	}
}

func TestRemoveAbsentIsSafe(t *testing.T) {
	f := New(16, 2, 2)
	f.Remove(99) // must not underflow
	if f.Test(99) {
		t.Errorf("absent element should still be absent")
	}
	f.Insert(5)
	f.Remove(99)
	if !f.Test(5) {
		t.Errorf("unrelated removal must not disturb present elements")
	}
}

func TestFalsePositiveAccounting(t *testing.T) {
	f := New(8, 1, 2) // deliberately tiny so collisions are likely
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Insert(rng.Uint64())
	}
	fpBefore := f.FalsePositives()
	found := false
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		if f.Contains(x) {
			continue
		}
		if f.Test(x) {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no false positive produced; extremely unlikely with 8 slots")
	}
	if f.FalsePositives() <= fpBefore {
		t.Errorf("false positive should have been counted")
	}
	if f.FalsePositiveRate() <= 0 || f.FalsePositiveRate() > 1 {
		t.Errorf("false positive rate out of range: %v", f.FalsePositiveRate())
	}
}

func TestMoreHashesReduceFalsePositives(t *testing.T) {
	// Reproduces the Figure 20a trend: with a fixed population, more hash
	// functions reduce the false-positive rate (until saturation).
	rate := func(hashes int) float64 {
		f := New(128, hashes, 2)
		rng := rand.New(rand.NewSource(7))
		members := make([]uint64, 12)
		for i := range members {
			members[i] = rng.Uint64()
			f.Insert(members[i])
		}
		for i := 0; i < 20000; i++ {
			f.Test(rng.Uint64())
		}
		return f.FalsePositiveRate()
	}
	r1 := rate(1)
	r3 := rate(3)
	if r3 >= r1 {
		t.Errorf("3 hash functions should have fewer false positives than 1: %v vs %v", r3, r1)
	}
}

func TestMoreSlotsReduceFalsePositives(t *testing.T) {
	// Figure 20b trend: larger counter arrays reduce false positives.
	rate := func(slots int) float64 {
		f := New(slots, 3, 2)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 12; i++ {
			f.Insert(rng.Uint64())
		}
		for i := 0; i < 20000; i++ {
			f.Test(rng.Uint64())
		}
		return f.FalsePositiveRate()
	}
	r32 := rate(32)
	r128 := rate(128)
	if r128 >= r32 && r32 != 0 {
		t.Errorf("128 slots should have fewer false positives than 32: %v vs %v", r128, r32)
	}
}

func TestClampedConstruction(t *testing.T) {
	f := New(0, 0, 0)
	if f.Slots() != 1 || f.Hashes() != 1 {
		t.Errorf("constructor should clamp to minimum sizes: %d slots %d hashes", f.Slots(), f.Hashes())
	}
	f2 := New(16, 100, 99)
	if f2.Hashes() != MaxHashFunctions {
		t.Errorf("hashes should clamp to %d, got %d", MaxHashFunctions, f2.Hashes())
	}
	f2.Insert(3)
	if !f2.Test(3) {
		t.Errorf("clamped filter should still work")
	}
}

func TestNVMCBFPartitioning(t *testing.T) {
	n := NewNVMCBF(128, 16, 3)
	if n.Count() != 128 {
		t.Fatalf("Count = %d", n.Count())
	}
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
		if p1 < 0 || p1 >= n.Count() {
			t.Fatalf("partition out of range: %d", p1)
		}
	}
	n.Insert(0x1000)
	ok, region := n.Test(0x1000)
	if !ok {
		t.Errorf("inserted block should test positive")
	}
	if region != n.PartitionFor(0x1000) {
		t.Errorf("Test should report the block's own region")
	}
	n.Remove(0x1000)
	if ok, _ := n.Test(0x1000); ok {
		t.Errorf("removed block should test negative")
	}
	if n.Tests() != 2 {
		t.Errorf("Tests() = %d, want 2", n.Tests())
	}
	if n.FalsePositiveRate() < 0 || n.FalsePositiveRate() > 1 {
		t.Errorf("aggregate false positive rate out of range")
	}
	if n.String() == "" {
		t.Errorf("String should describe the configuration")
	}
	if NewNVMCBF(0, 16, 3).Count() != 1 {
		t.Errorf("count should clamp to 1")
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

package core

import "testing"

func TestApproxLogicNegativeFastPath(t *testing.T) {
	a := NewApproxLogic(512, 128, 128, 3, 4)
	mayHit, cycles := a.Lookup(0x1000, false)
	if mayHit {
		t.Errorf("empty filter should answer definitely-absent")
	}
	if cycles != 1 {
		t.Errorf("negative check should cost one cycle, got %d", cycles)
	}
	if a.Searches() != 1 || a.SearchCycles() != 1 {
		t.Errorf("search accounting wrong")
	}
}

func TestApproxLogicPositiveSearch(t *testing.T) {
	a := NewApproxLogic(512, 128, 128, 3, 4)
	a.Register(0x2000)
	mayHit, cycles := a.Lookup(0x2000, true)
	if !mayHit {
		t.Fatalf("registered block should test positive")
	}
	// 512 blocks / 128 CBFs = 4 tags per region, 4 comparators -> 1
	// iteration + 1 test cycle = 2 cycles, matching the paper's "1 or 2
	// cycles" observation.
	if cycles != 2 {
		t.Errorf("positive search should cost 2 cycles with the paper configuration, got %d", cycles)
	}
	if a.AverageSearchCycles() <= 0 {
		t.Errorf("average search cycles should be positive")
	}
}

func TestApproxLogicUnregister(t *testing.T) {
	a := NewApproxLogic(512, 128, 128, 3, 4)
	a.Register(0x3000)
	a.Unregister(0x3000)
	mayHit, _ := a.Lookup(0x3000, false)
	if mayHit {
		t.Errorf("unregistered block should test negative (no other blocks present)")
	}
}

func TestApproxLogicFalsePositiveCost(t *testing.T) {
	// With a single tiny CBF, lookups of absent blocks while many blocks are
	// registered will often be false positives, and those searches cost the
	// full polling penalty.
	a := NewApproxLogic(64, 1, 8, 1, 4)
	for i := 0; i < 64; i++ {
		a.Register(uint64(0x4000 + i*128))
	}
	sawExpensive := false
	for i := 0; i < 200; i++ {
		block := uint64(0x90000 + i*128)
		mayHit, cycles := a.Lookup(block, false)
		if mayHit && cycles > 2 {
			sawExpensive = true
		}
	}
	if !sawExpensive {
		t.Errorf("expected at least one false-positive search with the saturated filter")
	}
	if a.WastedSearches() == 0 {
		t.Errorf("wasted searches should be counted")
	}
	if a.FalsePositiveRate() <= 0 {
		t.Errorf("false positive rate should be positive")
	}
}

func TestApproxLogicClampsConfiguration(t *testing.T) {
	a := NewApproxLogic(0, 0, 0, 0, 0)
	if a.searchIterations() < 1 {
		t.Errorf("search iterations should be at least 1")
	}
	mayHit, cycles := a.Lookup(1, false)
	if mayHit || cycles < 1 {
		t.Errorf("clamped logic should still answer lookups")
	}
	if a.Filters() == nil {
		t.Errorf("filters should be accessible")
	}
}

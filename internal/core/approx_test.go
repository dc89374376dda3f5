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
	// The membership test moves no state: asking again, about a block the
	// tags hold or not, answers the same.
	for _, present := range []bool{false, true} {
		if mayHit, cycles := a.Lookup(0x1000, present); mayHit || cycles != 1 {
			t.Errorf("repeated negative lookup (present=%v) = (%v, %d), want (false, 1)", present, mayHit, cycles)
		}
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
	// Repeated lookups against the unchanged filters give the same answer
	// at the same cost, which is what a held stall's replay charges.
	for i := 0; i < 3; i++ {
		if mayHit, cycles := a.Lookup(0x2000, true); !mayHit || cycles != 2 {
			t.Errorf("repeat %d: Lookup = (%v, %d), want (true, 2)", i, mayHit, cycles)
		}
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
	const lookups = 200
	wasted := 0
	for i := 0; i < lookups; i++ {
		block := uint64(0x90000 + i*128)
		mayHit, cycles := a.Lookup(block, false)
		if mayHit {
			wasted++
			if cycles <= 2 {
				t.Errorf("a false-positive search should pay the polling penalty, cost %d cycles", cycles)
			}
		}
	}
	if wasted == 0 {
		t.Errorf("expected at least one false-positive search with the saturated filter")
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
	a.Register(1)
	if mayHit, _ := a.Lookup(1, true); !mayHit {
		t.Errorf("clamped logic should find a registered block")
	}
}

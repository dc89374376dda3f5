package main

import (
	"math"
	"testing"
)

func TestHostClockBracketsEachInterval(t *testing.T) {
	var h hostClock
	// The first reading opens the first interval; alone it brackets nothing
	// and reads as itself.
	if f := h.next(probeRef * 2); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("first factor = %v, want 0.5", f)
	}
	// An interval between readings 2x and 1x probeRef ran at 1.5x: factor 2/3.
	if f := h.next(probeRef); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("factor = %v, want 2/3", f)
	}
	// A host at the reference speed leaves durations as they are.
	if f := h.next(probeRef); f != 1 {
		t.Errorf("factor at the reference speed = %v, want 1", f)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestRatioAndMean(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Error("mean")
	}
}

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		// Two children overlap (parallel workers): together they cover
		// 10..60, so the parent's self time is 100 - 50.
		{ID: 2, Parent: 1, Name: "exec", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "exec", Start: 20 * ms, End: 60 * ms},
		// A child reaching past its parent only counts inside it.
		{ID: 4, Parent: 2, Name: "get", Start: 35 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	if got := self["pass"]; got != 50*ms {
		t.Errorf("pass self = %v, want 50ms", got)
	}
	// exec: 30 - 5 (the clipped get) + 40.
	if got := self["exec"]; got != 65*ms {
		t.Errorf("exec self = %v, want 65ms", got)
	}
	if got := self["get"]; got != 10*ms {
		t.Errorf("get self = %v, want 10ms", got)
	}
	in := subtree(spans, 2)
	if !in[2] || !in[4] || in[1] || in[3] {
		t.Errorf("subtree(2) = %v", in)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", tr.parent(), "")
	tr.end(id, true, 1)
	tr.enter(5)
	if id != 0 || tr.snapshot() != nil || tr.parent() != 0 {
		t.Error("nil tracer must be a no-op")
	}
}

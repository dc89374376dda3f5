package fault

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"fuse/internal/sim"
	"fuse/internal/store"
)

// stringerJob is a minimal fmt.Stringer job for the injector.
type stringerJob string

func (j stringerJob) String() string { return string(j) }

func hexKey(b byte) string {
	return strings.Repeat(fmt.Sprintf("%02x", b), 32)
}

func TestDecideDeterministicAndCalibrated(t *testing.T) {
	p := Plan{Seed: 42}
	// Determinism: the same (op, key, seq) always decides the same way.
	for seq := uint64(0); seq < 100; seq++ {
		a := p.decide("get", "somekey", seq, 0.3)
		b := p.decide("get", "somekey", seq, 0.3)
		if a != b {
			t.Fatalf("seq %d: decision not deterministic", seq)
		}
	}
	// Calibration: over many trials the hit rate approaches the probability.
	hits := 0
	const trials = 20000
	for seq := uint64(0); seq < trials; seq++ {
		if p.decide("get", "calib", seq, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("decide rate = %.3f, want ~0.30", rate)
	}
	// Different seeds decide differently somewhere.
	q := Plan{Seed: 43}
	same := true
	for seq := uint64(0); seq < 64 && same; seq++ {
		same = p.decide("get", "k", seq, 0.5) == q.decide("get", "k", seq, 0.5)
	}
	if same {
		t.Errorf("seeds 42 and 43 made identical decisions for 64 trials")
	}
	// Degenerate probabilities.
	if p.decide("get", "k", 0, 0) {
		t.Errorf("probability 0 must never fire")
	}
	if !p.decide("get", "k", 0, 1) {
		t.Errorf("probability 1 must always fire")
	}
}

func TestCacheInjectsGetFailures(t *testing.T) {
	inner := store.NewMemory()
	key := hexKey(0x01)
	inner.Put(key, sim.Result{Workload: "A"})
	c := WrapCache(Plan{Seed: 7, GetFailProb: 0.5}, inner, nil)

	hits, misses := 0, 0
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(key); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("GetFailProb 0.5 should yield both hits and misses: %d/%d", hits, misses)
	}
	st := c.Stats()
	if st.GetsFailed != int64(misses) || st.GetsForwarded != int64(hits) {
		t.Errorf("stats %+v disagree with observed %d/%d", st, hits, misses)
	}
}

func TestCacheDropsAndCorruptsPuts(t *testing.T) {
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := WrapCache(Plan{Seed: 3, PutDropProb: 0.4, PutCorruptProb: 0.4}, disk, disk)
	res := sim.Result{Workload: "A", Cycles: 123}

	var dropped, corrupted, stored []string
	for i := 0; i < 64; i++ {
		key := hexKey(byte(i))
		c.Put(key, res)
		if _, ok := disk.Locate(key); !ok {
			dropped = append(dropped, key)
		} else if _, ok := disk.Get(key); ok {
			stored = append(stored, key)
		} else {
			corrupted = append(corrupted, key)
		}
	}
	if len(dropped) == 0 || len(corrupted) == 0 || len(stored) == 0 {
		t.Fatalf("want a mix of outcomes: %d dropped, %d corrupted, %d stored",
			len(dropped), len(corrupted), len(stored))
	}
	st := c.Stats()
	if st.PutsDropped != int64(len(dropped)) ||
		st.PutsCorrupt != int64(len(corrupted)) ||
		st.PutsForwarded != int64(len(stored)) {
		t.Errorf("stats %+v disagree with observed %d/%d/%d",
			st, len(dropped), len(corrupted), len(stored))
	}
	// Corrupt entries were quarantined by the probing Get above — a corrupt
	// Put is always detectable, never a wrong-but-valid result.
	if disk.Health().Quarantined != int64(len(corrupted)) {
		t.Errorf("Quarantined = %d, want %d", disk.Health().Quarantined, len(corrupted))
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	inner := store.NewMemory()
	c := WrapCache(Plan{}, inner, nil)
	key := hexKey(0xaa)
	c.Put(key, sim.Result{Workload: "X"})
	if _, ok := c.Get(key); !ok {
		t.Fatalf("zero plan must pass traffic through")
	}
	in := NewInjector(Plan{}, func(_ context.Context, j stringerJob) (sim.Result, error) {
		return sim.Result{Workload: string(j)}, nil
	})
	for i := 0; i < 20; i++ {
		if _, err := in.Exec(context.Background(), stringerJob("j")); err != nil {
			t.Fatalf("zero plan injected a failure: %v", err)
		}
	}
}

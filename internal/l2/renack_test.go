package l2

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"fuse/internal/dram"
	"fuse/internal/mem"
)

// TestRenackMatchesAccess drives two identical L2s with the same seeded mix
// of reads, writes, controller advances, resets and retries of NACKed reads.
// One L2 retries through NackHolds, Renack and RetryAt, its twin through
// Access; whenever NackHolds says a read is still blocked, the twin's real
// Access must have NACKed it too, at the same retry cycle, with the same
// version and set and the same counter changes — the twins must stay
// identical in every field. A small, narrow L2 in front of a
// one-channel DRAM keeps the MSHR files and merge lists full, the tag stores
// churning and dirty victims flowing, and retries re-NACKed by version must
// include both full-file and full-merge-list NACKs.
func TestRenackMatchesAccess(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		renacked, fresh := runRenackTwins(t, seed, 20000)
		if renacked[0] < 1000 || renacked[1] < 1000 || fresh < 1000 {
			t.Errorf("seed %d: %d full-merge-list and %d full-file retries NACKed by version, %d presented again; the mix exercises too little",
				seed, renacked[0], renacked[1], fresh)
		}
	}
}

// nacked is a read an L2 NACKed, with the NACK's result.
type nacked struct {
	req mem.Request
	res Result
}

// runRenackTwins runs the twin-L2 differential for the given number of
// steps and returns how many retries NackHolds NACKed, by the kind of NACK
// (index 1 for a full MSHR file), and how many it sent back through Access.
func runRenackTwins(t *testing.T, seed uint64, steps int) (renacked [2]int, fresh int) {
	t.Helper()
	newTwin := func() *L2 {
		cfg := Config{Banks: 2, TotalKB: 2, Ways: 2, LatencyCycles: 4, PendingLimit: 2, MergeWidth: 2}
		return New(cfg, dram.New(dram.Config{Channels: 1, QueueDepth: 2}))
	}
	a, b := newTwin(), newTwin()
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var pending []nacked
	now := int64(0)
	block := func() uint64 { return uint64(rng.IntN(24)) * mem.BlockSize }

	// present hands a request to both twins through Access and queues a
	// NACKed read for a later retry.
	present := func(req mem.Request) {
		ra, rb := a.Access(req, now), b.Access(req, now)
		if ra != rb {
			t.Fatalf("seed %d cycle %d: twins answered %+v and %+v to the same access", seed, now, ra, rb)
		}
		if ra.Outcome == OutcomeBlocked {
			pending = append(pending, nacked{req: req, res: ra})
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(40); {
		case op < 10:
			present(mem.Request{Addr: block(), Kind: mem.Read, PC: uint64(step)})
		case op < 12:
			present(mem.Request{Addr: block(), Kind: mem.Write, PC: uint64(step)})
		case op < 36:
			if len(pending) == 0 {
				continue
			}
			k := rng.IntN(len(pending))
			n := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			if !a.NackHolds(a.BankFor(n.req.Addr), n.res.Set, n.res.Version) {
				fresh++
				present(n.req)
				break
			}
			renacked[n.res.Version&1]++
			a.Renack(1)
			ra := Result{Outcome: OutcomeBlocked, RetryAt: a.RetryAt(now), Version: n.res.Version, Set: n.res.Set}
			if rb := b.Access(n.req, now); rb != ra {
				t.Fatalf("seed %d cycle %d: NACK version %d still holds, but Access answered %+v to the retry (want %+v)",
					seed, now, n.res.Version, rb, ra)
			}
			pending = append(pending, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d cycle %d: Renack and Access left the twins in different states (stalls %d/%d)",
					seed, now, a.MSHRStalls(), b.MSHRStalls())
			}
		default:
			now += int64(1 + rng.IntN(8))
			for next := a.NextEventAt(); next >= 0 && next <= now; next = a.NextEventAt() {
				fa, fb := a.Advance(next), b.Advance(next)
				if !reflect.DeepEqual(fa, fb) {
					t.Fatalf("seed %d cycle %d: twins completed different fills", seed, next)
				}
			}
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed %d: the twins diverged", seed)
	}
	return renacked, fresh
}

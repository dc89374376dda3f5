package l2

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fuse/internal/dram"
	"fuse/internal/mem"
)

// TestBackPressureWaitsOnChannelRoom drives tiny back-pressured memory sides
// (one or two channels two requests deep, four MSHRs per bank, a two-set
// bank) with seeded reads and write-backs, and checks after every Access and
// every Advance that each bank holding held fills or buffered write-backs
// sits on a full channel: pump left nothing behind that the controller could
// take. pump hands work over only to a channel with room and panics if that
// channel rejects it (L2.submit), so a run that completes also proves that
// no retry was rejected.
func TestBackPressureWaitsOnChannelRoom(t *testing.T) {
	for _, channels := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("channels=%d/seed=%d", channels, seed), func(t *testing.T) {
				checkBackPressure(t, channels, seed)
			})
		}
	}
}

func checkBackPressure(t *testing.T, channels int, seed uint64) {
	cfg := Config{Banks: 2 * channels, TotalKB: channels, Ways: 2, LatencyCycles: 4, PendingLimit: 4, MergeWidth: 2}
	d := dram.New(dram.Config{Channels: channels, QueueDepth: 2})
	l := New(cfg, d)
	rng := rand.New(rand.NewPCG(seed, 0xBAC4))
	check := func(step string) {
		t.Helper()
		for i, b := range l.banks {
			backlogged := b.held.len() > 0 || b.wbq.len() > 0
			if backlogged && d.HasRoom(b.ch) {
				t.Fatalf("%s: bank %d holds %d fills and %d write-backs, but channel %d has room", step, i, b.held.len(), b.wbq.len(), b.ch)
			}
			if bit := l.backlog[i>>6]>>(i&63)&1 == 1; bit != backlogged {
				t.Fatalf("%s: bank %d backlog bit %v, holds %d fills and %d write-backs", step, i, bit, b.held.len(), b.wbq.len())
			}
		}
	}
	now := int64(0)
	held, buffered := 0, 0
	for i := 0; i < 4000; i++ {
		var step string
		if rng.IntN(3) > 0 {
			for n := rng.IntN(6); n >= 0; n-- {
				req := read(uint64(rng.IntN(64)) * mem.BlockSize)
				if rng.IntN(2) == 0 {
					req = write(req.Addr)
				}
				step = fmt.Sprintf("op %d Access(%v %#x, %d)", i, req.Kind, req.Addr, now)
				l.Access(req, now)
				check(step)
			}
		} else {
			if next := l.NextEventAt(); next >= 0 && rng.IntN(4) > 0 {
				now = max(now, next)
			} else {
				now += int64(rng.IntN(20))
			}
			step = fmt.Sprintf("op %d Advance(%d)", i, now)
			l.Advance(now)
			check(step)
		}
		for _, b := range l.banks {
			held = max(held, b.held.len())
			buffered = max(buffered, b.wbq.len())
		}
	}
	if held < 2 || buffered < 2 {
		t.Fatalf("back-pressure too light: at most %d held fills and %d buffered write-backs in a bank", held, buffered)
	}
	drainFills(t, l, now+1_000_000)
	check("drained")
	if d.Pending() != 0 || l.PendingFills() != 0 {
		t.Fatalf("drained memory side still has %d DRAM requests and %d fills pending", d.Pending(), l.PendingFills())
	}
}

// TestNewPanicsWhenChannelsDoNotDivideBanks pins the bank-to-channel
// mapping pump relies on: 12 banks across 5 channels would spread one bank's
// blocks over several channels.
func TestNewPanicsWhenChannelsDoNotDivideBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("12 banks over 5 channels did not panic")
		}
	}()
	New(Config{Banks: 12}, dram.New(dram.Config{Channels: 5}))
}

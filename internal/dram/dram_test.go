package dram

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"fuse/internal/mem"
)

func TestDefaultsMatchTableI(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.Channels != 6 {
		t.Errorf("paper uses 6 DRAM channels, got %d", cfg.Channels)
	}
	if cfg.TCL != 12 || cfg.TRCD != 12 || cfg.TRAS != 28 {
		t.Errorf("timings should match Table I: %+v", cfg)
	}
	if d.Channels() != 6 {
		t.Errorf("Channels() = %d", d.Channels())
	}
	if d.BackendName() != "GDDR5" {
		t.Errorf("default backend should be GDDR5, got %s", d.BackendName())
	}
	if !strings.Contains(d.String(), "GDDR5") {
		t.Errorf("String should describe the device")
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	d := New(Config{})
	// First access opens the row (row miss).
	first := d.Access(0, false, 0)
	// Second access to the same block hits the open row.
	second := d.Access(0, false, first)
	missLat := first - 0
	hitLat := second - first
	if hitLat >= missLat {
		t.Errorf("row hit (%d cycles) should be faster than row miss (%d cycles)", hitLat, missLat)
	}
	if d.RowHitRate() != 0.5 {
		t.Errorf("row hit rate = %v, want 0.5", d.RowHitRate())
	}
}

func TestChannelInterleaving(t *testing.T) {
	d := New(Config{})
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		seen[d.ChannelFor(uint64(i)*mem.BlockSize)] = true
	}
	if len(seen) != 6 {
		t.Errorf("consecutive blocks should spread over all 6 channels, hit %d", len(seen))
	}
	// Same address always maps to the same channel.
	if d.ChannelFor(0x12380) != d.ChannelFor(0x12380) {
		t.Errorf("channel mapping must be deterministic")
	}
}

func TestBankLevelParallelism(t *testing.T) {
	d := New(Config{})
	// Two requests to different channels at the same time should both finish
	// at (roughly) the single-request latency, not serialise.
	a := d.Access(0*mem.BlockSize, false, 0)
	b := d.Access(1*mem.BlockSize, false, 0) // different channel by interleaving
	single := New(Config{}).Access(0, false, 0)
	if a > single || b > single {
		t.Errorf("independent channels should not serialise: a=%d b=%d single=%d", a, b, single)
	}
	// Two requests to the same bank must serialise.
	d2 := New(Config{})
	first := d2.Access(0, false, 0)
	second := d2.Access(0, false, 0)
	if second <= first {
		t.Errorf("same-bank requests must serialise: %d then %d", first, second)
	}
}

// TestFRFCFSRowHitOvertakesRowMiss pins the scheduling policy the old
// arrival-ordered model could not express: while the bank serves row 0, an
// older queued request to row 1 is overtaken by a younger request to the
// open row 0.
func TestFRFCFSRowHitOvertakesRowMiss(t *testing.T) {
	d := New(Config{Channels: 1, BanksPerChannel: 1})
	blocksPerRow := uint64(d.Config().RowBytes / mem.BlockSize)

	rowMiss := blocksPerRow * mem.BlockSize // row 1
	rowHit := uint64(mem.BlockSize)         // row 0, distinct block from the opener

	if _, ok := d.Submit(0, false, 0); !ok { // opens row 0
		t.Fatal("submit rejected")
	}
	d.Advance(0)
	seqMiss, ok := d.Submit(rowMiss, false, 1)
	if !ok {
		t.Fatal("submit rejected")
	}
	seqHit, ok := d.Submit(rowHit, false, 2)
	if !ok {
		t.Fatal("submit rejected")
	}

	doneAt := map[uint64]int64{}
	for len(doneAt) < 3 {
		next := d.NextEventAt()
		if next < 0 {
			t.Fatalf("controller idle with work outstanding")
		}
		for _, c := range d.Advance(next) {
			doneAt[c.Seq] = c.Done
		}
	}
	if doneAt[seqHit] >= doneAt[seqMiss] {
		t.Errorf("FR-FCFS must serve the younger row hit (done %d) before the older row miss (done %d)",
			doneAt[seqHit], doneAt[seqMiss])
	}
	if d.RowHitRate() == 0 {
		t.Errorf("the overtaking request should have been a row hit")
	}
}

func TestSubmitBackPressure(t *testing.T) {
	d := New(Config{Channels: 1, QueueDepth: 2})
	if _, ok := d.Submit(0, false, 0); !ok {
		t.Fatal("first submit should be accepted")
	}
	if _, ok := d.Submit(mem.BlockSize, false, 0); !ok {
		t.Fatal("second submit should be accepted")
	}
	if _, ok := d.Submit(2*mem.BlockSize, false, 0); ok {
		t.Fatal("third submit must be rejected by a depth-2 queue")
	}
	if d.QueueStalls() != 1 {
		t.Errorf("rejections should be counted, got %d", d.QueueStalls())
	}
	// The held-back request waits for room instead of re-attempting, so one
	// delayed request is one queue stall.
	if d.HasRoom(d.ChannelFor(2 * mem.BlockSize)) {
		t.Fatal("a full channel must report no room")
	}
	if d.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", d.Pending())
	}
	// Drain one completion: a slot frees up.
	for !d.HasRoom(d.ChannelFor(2 * mem.BlockSize)) {
		next := d.NextEventAt()
		if next < 0 {
			t.Fatal("controller idle with work outstanding")
		}
		d.Advance(next)
	}
	if _, ok := d.Submit(2*mem.BlockSize, false, d.NextEventAt()); !ok {
		t.Errorf("submit should succeed after a completion freed a slot")
	}
	if d.QueueStalls() != 1 {
		t.Errorf("one held-back request is one queue stall, got %d", d.QueueStalls())
	}
}

func TestReadWriteCounted(t *testing.T) {
	d := New(Config{})
	d.Access(0, false, 0)
	d.Access(128, true, 0)
	if d.Reads() != 1 || d.Writes() != 1 || d.Accesses() != 2 {
		t.Errorf("access counters wrong: %d reads %d writes %d total", d.Reads(), d.Writes(), d.Accesses())
	}
	if d.AverageLatency() <= 0 {
		t.Errorf("average latency should be positive")
	}
	if d.EnergyNJ() <= 0 {
		t.Errorf("issued commands should accumulate backend energy")
	}
}

func TestCompletionAfterIssue(t *testing.T) {
	prop := func(addr uint64, write bool, now uint32) bool {
		d := New(Config{})
		done := d.Access(addr, write, int64(now))
		return done > int64(now)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSameBankMonotonicCompletion(t *testing.T) {
	d := New(Config{})
	prev := int64(0)
	for i := 0; i < 50; i++ {
		done := d.Access(0, i%3 == 0, int64(i))
		if done < prev {
			t.Fatalf("completion times must be monotonic for one bank: %d < %d", done, prev)
		}
		prev = done
	}
}

func TestOffChipLatencyFarExceedsL1Latency(t *testing.T) {
	// The motivation of the whole paper: a DRAM access costs dozens of
	// cycles even before the interconnect is added, vs. 1 cycle for the L1D.
	d := New(Config{})
	lat := d.Access(0x100000, false, 0)
	if lat < 20 {
		t.Errorf("cold DRAM access should cost at least tRCD+tCL+burst, got %d", lat)
	}
}

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	if len(names) < 3 {
		t.Fatalf("at least three backends must be selectable, got %v", names)
	}
	if names[0] != DefaultBackend {
		t.Errorf("the baseline backend should lead the registry: %v", names)
	}
	for _, name := range names {
		be, err := BackendByName(name)
		if err != nil || be.Name() != name {
			t.Errorf("BackendByName(%q) = %v, %v", name, be, err)
		}
		tm := be.Timing(Config{}.withDefaults())
		if tm.TCL <= 0 || tm.TRCD <= 0 || tm.TRP <= 0 || tm.TRAS <= 0 || tm.BurstCycles <= 0 {
			t.Errorf("backend %s has non-positive timing: %+v", name, tm)
		}
		e := be.Energy()
		if e.ReadNJ <= 0 || e.WriteNJ <= 0 {
			t.Errorf("backend %s has non-positive energy: %+v", name, e)
		}
	}
	if _, err := BackendByName(""); err != nil {
		t.Errorf("empty name should resolve to the default backend: %v", err)
	}
	if _, err := BackendByName("PCM-9000"); err == nil {
		t.Errorf("unknown backend should be rejected")
	}
}

func TestUnknownBackendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New with an unknown backend should panic")
		}
	}()
	New(Config{Backend: "PCM-9000"})
}

func TestBackendsShapeTimingAndEnergy(t *testing.T) {
	// STT-MRAM main memory: writes pay the MTJ switching time on top of the
	// burst, so a write burst takes longer than a read burst.
	stt := New(Config{Backend: "STT-MRAM", Channels: 1, BanksPerChannel: 1})
	r1 := stt.Access(0, false, 0)
	r2 := stt.Access(0, false, r1) // row hit read
	w := stt.Access(0, true, r2)   // row hit write
	if w-r2 <= r2-r1 {
		t.Errorf("STT-MRAM write burst (%d) should exceed its read burst (%d)", w-r2, r2-r1)
	}
	// HBM2 moves a burst in fewer bus cycles than GDDR5 and at lower energy.
	hbm := New(Config{Backend: "HBM2"})
	gddr := New(Config{})
	if hbm.Config().BurstCycles >= gddr.Config().BurstCycles {
		t.Errorf("HBM2 burst (%d) should beat GDDR5 (%d)", hbm.Config().BurstCycles, gddr.Config().BurstCycles)
	}
	hbm.Access(0, false, 0)
	gddr.Access(0, false, 0)
	if hbm.EnergyNJ() >= gddr.EnergyNJ() {
		t.Errorf("HBM2 access energy (%v nJ) should be below GDDR5 (%v nJ)", hbm.EnergyNJ(), gddr.EnergyNJ())
	}
}

func TestConfigClamping(t *testing.T) {
	d := New(Config{Channels: -1, BanksPerChannel: 0, RowBytes: 0, TCL: 0, TRCD: 0, TRP: 0, TRAS: 0, BurstCycles: 0, QueueDepth: 0})
	cfg := d.Config()
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.RowBytes <= 0 || cfg.QueueDepth <= 0 {
		t.Errorf("invalid config should clamp to defaults: %+v", cfg)
	}
	if done := d.Access(0, false, 0); done <= 0 {
		t.Errorf("clamped DRAM should still serve accesses")
	}
}

// bruteNextEventAt is the full rescan NextEventAt used to perform: the
// earliest flight completion or queued issue-ready time over every channel,
// -1 when idle.
func bruteNextEventAt(d *DRAM) int64 {
	next := int64(-1)
	for i := range d.channels {
		ch := &d.channels[i]
		for _, f := range ch.flights {
			if next < 0 || f.done < next {
				next = f.done
			}
		}
		for _, r := range ch.queue {
			if t := d.issueReadyAt(ch, r); next < 0 || t < next {
				next = t
			}
		}
	}
	return next
}

// TestNextEventAtMatchesRescan drives controllers with seeded random
// traffic — submissions arriving now or later, retries of rejected requests,
// advances to random times and to the reported next event — and checks after
// every operation that the incrementally kept NextEventAt equals a full
// rescan, and after every Advance that nothing due at `now` was left behind
// (the channels Advance skips must really have had nothing to do).
func TestNextEventAtMatchesRescan(t *testing.T) {
	for _, cfg := range []Config{
		{Channels: 1, BanksPerChannel: 2, QueueDepth: 4, Backend: "GDDR5"},
		{Channels: 3, BanksPerChannel: 4, QueueDepth: 6, RowBytes: 512, Backend: "GDDR5"},
		{Channels: 6, QueueDepth: 16, Backend: "HBM2"},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dch/%s/seed=%d", cfg.Channels, cfg.Backend, seed), func(t *testing.T) {
				diffNextEventAt(t, cfg, seed)
			})
		}
	}
}

func diffNextEventAt(t *testing.T, cfg Config, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xD7A3))
	d := New(cfg)
	check := func(step string) {
		t.Helper()
		if got, want := d.NextEventAt(), bruteNextEventAt(d); got != want {
			t.Fatalf("%s: NextEventAt = %d, rescan = %d", step, got, want)
		}
	}
	type held struct {
		addr  uint64
		write bool
	}
	var rejected []held
	now := int64(0)
	blocks := 64 * d.Channels()
	completions, stalls := 0, 0
	for i := 0; i < 5000; i++ {
		var step string
		switch op := rng.IntN(8); {
		case op < 3:
			// A burst, so that the queues fill and reject.
			for n := rng.IntN(8); n >= 0; n-- {
				addr := uint64(rng.IntN(blocks)) * mem.BlockSize
				write := rng.IntN(4) == 0
				at := now + int64(rng.IntN(40))
				step = fmt.Sprintf("op %d Submit(%#x, %v, %d)", i, addr, write, at)
				if _, ok := d.Submit(addr, write, at); !ok {
					rejected = append(rejected, held{addr, write})
					stalls++
				}
				check(step)
			}
		case op == 3 && len(rejected) > 0:
			h := rejected[0]
			step = fmt.Sprintf("op %d retry Submit(%#x, %v, %d)", i, h.addr, h.write, now)
			if d.HasRoom(d.ChannelFor(h.addr)) {
				if _, ok := d.Submit(h.addr, h.write, now); !ok {
					t.Fatalf("%s: a channel with room rejected the request", step)
				}
				rejected = rejected[1:]
			}
		default:
			if next := d.NextEventAt(); next >= 0 && rng.IntN(2) == 0 {
				now = max(now, next)
			} else {
				now += int64(rng.IntN(30))
			}
			step = fmt.Sprintf("op %d Advance(%d)", i, now)
			completions += len(d.Advance(now))
			for c := range d.channels {
				ch := &d.channels[c]
				for _, f := range ch.flights {
					if f.done <= now {
						t.Fatalf("%s: channel %d kept a flight done at %d", step, c, f.done)
					}
				}
				for _, r := range ch.queue {
					if at := d.issueReadyAt(ch, r); at <= now {
						t.Fatalf("%s: channel %d left a request issuable at %d", step, c, at)
					}
				}
			}
		}
		check(step)
	}
	if completions == 0 || stalls == 0 {
		t.Fatalf("traffic too light: %d completions, %d rejected submissions", completions, stalls)
	}
}

// BenchmarkDRAMNextEventAt measures the controller's next-event query with
// every channel queue of the paper's 6-channel controller loaded to its
// depth, the state a memory-bound run spends most of its time in.
func BenchmarkDRAMNextEventAt(b *testing.B) {
	d := New(Config{})
	for i := 0; ; i++ {
		if _, ok := d.Submit(uint64(i)*mem.BlockSize, i%4 == 0, int64(i%32)); !ok {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NextEventAt()
	}
}

// BenchmarkDRAMPick measures one FR-FCFS pick on a channel whose queue is
// full: every request is issuable, the oldest is a row miss and the second
// oldest the only row hit, so the pick is the second request.
func BenchmarkDRAMPick(b *testing.B) {
	d := New(Config{Channels: 1})
	ch := &d.channels[0]
	ch.banks[0].openRow, ch.banks[0].hasOpenRow = 5, true
	ch.queue = append(ch.queue, request{bank: 1, row: 3}, request{bank: 0, row: 5})
	for i := len(ch.queue); i < d.cfg.QueueDepth; i++ {
		ch.queue = append(ch.queue, request{bank: i % d.cfg.BanksPerChannel, row: int64(100 + i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx, _ := d.pick(ch, 1000); idx != 1 {
			b.Fatal("the row hit was not picked")
		}
	}
}

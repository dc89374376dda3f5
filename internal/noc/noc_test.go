package noc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultsMatchPaper(t *testing.T) {
	n := New(Config{})
	cfg := n.Config()
	if cfg.SMNodes != 15 || cfg.MemNodes != 12 {
		t.Errorf("default topology should be 15 SMs + 12 L2 banks, got %+v", cfg)
	}
	if n.Nodes() != 27 {
		t.Errorf("paper's butterfly has 27 nodes, got %d", n.Nodes())
	}
	if n.Stages() < 2 {
		t.Errorf("butterfly over 15 endpoints should need at least 2 stages of radix-4 routers")
	}
	if !strings.Contains(n.String(), "butterfly") {
		t.Errorf("String should describe the topology")
	}
}

func TestZeroLoadLatency(t *testing.T) {
	n := New(Config{})
	small := n.ZeroLoadLatency(32)
	big := n.ZeroLoadLatency(128)
	if small <= 0 {
		t.Errorf("zero-load latency must be positive")
	}
	if big <= small {
		t.Errorf("larger packets should take longer: %d vs %d", big, small)
	}
}

func TestSendRequestDeliversAfterZeroLoadLatency(t *testing.T) {
	n := New(Config{})
	arrive := n.SendRequest(0, 0, 32, 100)
	if arrive != 100+n.ZeroLoadLatency(32) {
		t.Errorf("delivery took %d cycles on an idle network, want the zero-load latency %d", arrive-100, n.ZeroLoadLatency(32))
	}
	req, resp := n.Packets()
	if req != 1 || resp != 0 {
		t.Errorf("packet accounting wrong: %d req %d resp", req, resp)
	}
	if n.AverageLatency() <= 0 {
		t.Errorf("average latency should be positive")
	}
}

func TestContentionSerialisesPackets(t *testing.T) {
	n := New(Config{})
	// Many SMs sending large responses... use requests all to the same bank
	// at the same cycle: they share the final link and must serialise.
	var last int64
	for sm := 0; sm < 15; sm++ {
		arrive := n.SendRequest(sm, 3, 128, 0)
		if arrive > last {
			last = arrive
		}
	}
	single := New(Config{}).SendRequest(0, 3, 128, 0)
	if last <= single {
		t.Errorf("15 simultaneous packets to one bank should finish later than a single packet: %d vs %d", last, single)
	}
}

func TestRequestAndResponseNetworksAreIndependent(t *testing.T) {
	n := New(Config{})
	// Saturate the request network.
	for i := 0; i < 50; i++ {
		n.SendRequest(1, 2, 128, 0)
	}
	// A response should still see an idle network.
	arrive := n.SendResponse(2, 1, 128, 0)
	if arrive > n.ZeroLoadLatency(128) {
		t.Errorf("response network should not be congested by request traffic: arrive=%d", arrive)
	}
}

func TestDeterministicRouting(t *testing.T) {
	n1 := New(Config{})
	n2 := New(Config{})
	for sm := 0; sm < 15; sm++ {
		for bank := 0; bank < 12; bank++ {
			a := n1.SendRequest(sm, bank, 64, 1000)
			b := n2.SendRequest(sm, bank, 64, 1000)
			if a != b {
				t.Fatalf("routing must be deterministic: sm=%d bank=%d %d vs %d", sm, bank, a, b)
			}
		}
	}
}

func TestDeliveryNeverBeforeInjection(t *testing.T) {
	prop := func(sm, bank uint8, bytes uint16, now uint32) bool {
		n := New(Config{})
		arrive := n.SendRequest(int(sm), int(bank), int(bytes%512), int64(now))
		return arrive > int64(now)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicLinkReservation(t *testing.T) {
	// Packets injected later on the same path never arrive earlier than
	// packets injected earlier.
	n := New(Config{})
	prev := int64(0)
	for i := 0; i < 64; i++ {
		arrive := n.SendRequest(2, 5, 128, int64(i))
		if arrive < prev {
			t.Fatalf("later packet arrived earlier: %d < %d", arrive, prev)
		}
		prev = arrive
	}
}

func TestConfigClamping(t *testing.T) {
	n := New(Config{SMNodes: -1, MemNodes: 0, Radix: 0, HopLatency: -5, FlitBytes: 0})
	cfg := n.Config()
	if cfg.SMNodes <= 0 || cfg.MemNodes <= 0 || cfg.Radix <= 1 || cfg.HopLatency <= 0 || cfg.FlitBytes <= 0 {
		t.Errorf("invalid configuration should be clamped: %+v", cfg)
	}
	if n.flits(0) != 1 {
		t.Errorf("zero-byte packets still occupy one flit")
	}
	if n.AverageLatency() != 0 {
		t.Errorf("average latency with no packets should be 0")
	}
}

// TestHandComputedTwoStageButterfly pins ZeroLoadLatency, the routing
// function's link sets and link serialisation against a fully hand-computed
// 2-stage butterfly: 8 SMs + 8 banks on radix-4 routers (2 routers per
// stage, 8 ports each).
func TestHandComputedTwoStageButterfly(t *testing.T) {
	n := New(Config{SMNodes: 8, MemNodes: 8, Radix: 4, HopLatency: 4, FlitBytes: 32})
	if n.Stages() != 2 {
		t.Fatalf("8 endpoints on radix-4 need exactly 2 stages, got %d", n.Stages())
	}
	// 64 bytes = 2 flits; each of the 2 stages costs serialisation (2) plus
	// the hop latency (4): 2 * (2 + 4) = 12 cycles.
	if got := n.ZeroLoadLatency(64); got != 12 {
		t.Errorf("ZeroLoadLatency(64) = %d, want 12", got)
	}
	// Routing: stage 0 reaches all 2 routers x 4 ports = 8 links; stage 1's
	// router is the stage-0 output port (0..3) folded mod 2 routers, and its
	// port is dst/4 (0 or 1), so only links {0,1,4,5} — 4 of 8 — are wired.
	// Both directions route 8 sources to 8 destinations.
	used := [2]map[int]bool{{}, {}}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			for s, li := range n.pathLinks(src, dst) {
				used[s][li] = true
			}
		}
	}
	if len(used[0]) != 8 {
		t.Errorf("stage 0 routes use %d links, want all 8", len(used[0]))
	}
	for _, li := range []int{0, 1, 4, 5} {
		if !used[1][li] {
			t.Errorf("stage 1 routes never use link %d", li)
		}
	}
	if len(used[1]) != 4 {
		t.Errorf("stage 1 routes use %d links, want exactly {0,1,4,5}", len(used[1]))
	}
	// One 32-byte packet (1 flit) holds one link per stage for 1 cycle, so
	// a second packet on the same path waits one cycle at the first stage
	// and, behind the first packet again, at the second.
	if arrive := n.SendRequest(0, 0, 32, 0); arrive != 10 {
		t.Fatalf("1-flit packet should deliver at cycle 10 (2 stages x (1+4)), got %d", arrive)
	}
	if arrive := n.SendRequest(0, 0, 32, 0); arrive != 11 {
		t.Errorf("a second 1-flit packet on the same path should deliver at cycle 11, got %d", arrive)
	}
}

func TestVoltaStyleWiderLinksAreFaster(t *testing.T) {
	narrow := New(Config{FlitBytes: 32})
	wide := New(Config{FlitBytes: 64})
	a := narrow.SendResponse(0, 0, 128, 0)
	b := wide.SendResponse(0, 0, 128, 0)
	if b >= a {
		t.Errorf("wider links should deliver 128B responses faster: %d vs %d", b, a)
	}
}

// BenchmarkNoCRoute measures one request and its response crossing the
// paper's 15-SM, 12-bank butterfly: two routed packets per iteration, with
// injection times advancing so the links see steady contention.
func BenchmarkNoCRoute(b *testing.B) {
	n := New(Config{})
	cfg := n.Config()
	for i := 0; i < b.N; i++ {
		sm, bank := i%cfg.SMNodes, (i*7)%cfg.MemNodes
		now := int64(i / 4)
		arrive := n.SendRequest(sm, bank, 32, now)
		n.SendResponse(bank, sm, 128, arrive+10)
	}
}

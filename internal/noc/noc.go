// Package noc models the interconnection network between the SMs and the
// shared L2 cache banks. The paper configures a butterfly topology with 27
// nodes (15 SMs + 12 L2 banks); we model a radix-k multistage butterfly whose
// links are occupied for the serialisation time of each packet, which
// captures both the multi-hop latency and the bandwidth contention that make
// off-chip references so expensive (Figure 1).
package noc

import "fmt"

// Direction selects the request (SM -> L2) or response (L2 -> SM) subnetwork.
// The two directions have independent links, as in a real GPU NoC where
// request and reply virtual networks are separated to avoid protocol
// deadlock.
type Direction uint8

const (
	// RequestNet carries memory requests from SMs to L2 banks.
	RequestNet Direction = iota
	// ResponseNet carries fill data from L2 banks back to SMs.
	ResponseNet
)

// Config describes the network.
type Config struct {
	// SMNodes is the number of SM endpoints.
	SMNodes int
	// MemNodes is the number of L2-bank endpoints.
	MemNodes int
	// Radix is the router radix (ports per router); the paper's butterfly
	// uses small-radix routers arranged in stages.
	Radix int
	// HopLatency is the router traversal latency in core cycles.
	HopLatency int
	// FlitBytes is the number of bytes a link moves per cycle.
	FlitBytes int
}

// withDefaults fills zero fields with the paper's baseline values.
func (c Config) withDefaults() Config {
	if c.SMNodes <= 0 {
		c.SMNodes = 15
	}
	if c.MemNodes <= 0 {
		c.MemNodes = 12
	}
	if c.Radix <= 1 {
		c.Radix = 4
	}
	if c.HopLatency <= 0 {
		c.HopLatency = 4
	}
	if c.FlitBytes <= 0 {
		c.FlitBytes = 32
	}
	return c
}

// link tracks when a physical channel becomes free again.
type link struct {
	nextFree int64
}

// Network is the butterfly interconnect.
type Network struct {
	cfg    Config
	stages int
	// links[direction][stage][router*radix+port]
	links [2][][]link
	// pathBuf is the reusable per-route scratch buffer: routing runs once or
	// twice per packet on the simulator's hot path, and a per-call slice
	// allocation there dominates the network's own arithmetic.
	pathBuf []int

	reqPackets  uint64
	respPackets uint64
	totalLat    uint64
}

// New builds a network from the configuration (zero-value fields take the
// paper's defaults).
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{cfg: cfg}
	endpoints := cfg.SMNodes
	if cfg.MemNodes > endpoints {
		endpoints = cfg.MemNodes
	}
	// Number of butterfly stages: ceil(log_radix(endpoints)).
	stages := 1
	span := cfg.Radix
	for span < endpoints {
		span *= cfg.Radix
		stages++
	}
	n.stages = stages
	routersPerStage := (endpoints + cfg.Radix - 1) / cfg.Radix
	if routersPerStage < 1 {
		routersPerStage = 1
	}
	for d := 0; d < 2; d++ {
		n.links[d] = make([][]link, stages)
		for s := 0; s < stages; s++ {
			n.links[d][s] = make([]link, routersPerStage*cfg.Radix)
		}
	}
	return n
}

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Stages returns the number of router stages a packet traverses.
func (n *Network) Stages() int { return n.stages }

// Nodes returns the total number of endpoints (SMs + L2 banks), 27 in the
// paper's baseline.
func (n *Network) Nodes() int { return n.cfg.SMNodes + n.cfg.MemNodes }

// flits returns the serialisation time (in cycles) of a packet of the given
// size on one link.
func (n *Network) flits(bytes int) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	f := (bytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return int64(f)
}

// pathLinks returns the link indices a packet takes through the stages. The
// butterfly routing function uses destination digits in the router radix, so
// the same (src,dst) pair always takes the same path (deterministic routing).
// The returned slice aliases a scratch buffer owned by the network: it is
// valid only until the next pathLinks call.
func (n *Network) pathLinks(src, dst int) []int {
	if cap(n.pathBuf) < n.stages {
		n.pathBuf = make([]int, n.stages)
	}
	path := n.pathBuf[:n.stages]
	routersPerStage := len(n.links[0][0]) / n.cfg.Radix
	router := src % max(routersPerStage, 1)
	d := dst
	for s := 0; s < n.stages; s++ {
		port := d % n.cfg.Radix
		d /= n.cfg.Radix
		path[s] = (router%max(routersPerStage, 1))*n.cfg.Radix + port
		// The butterfly shuffle: the next-stage router is determined by the
		// output port and the current router index.
		router = (router/n.cfg.Radix)*n.cfg.Radix + port
	}
	return path
}

// send walks the packet through the selected subnetwork, reserving each link
// for the packet's serialisation time, and returns the delivery cycle.
func (n *Network) send(dir Direction, src, dst, bytes int, now int64) int64 {
	ser := n.flits(bytes)
	t := now
	for s, li := range n.pathLinks(src, dst) {
		l := &n.links[dir][s][li]
		start := t
		if l.nextFree > start {
			start = l.nextFree
		}
		depart := start + ser
		l.nextFree = depart
		t = depart + int64(n.cfg.HopLatency)
	}
	n.totalLat += uint64(t - now)
	return t
}

// SendRequest injects a request packet from SM `sm` toward L2 bank `bank` at
// cycle `now` and returns the cycle at which it arrives at the bank.
func (n *Network) SendRequest(sm, bank, bytes int, now int64) int64 {
	n.reqPackets++
	return n.send(RequestNet, sm%n.cfg.SMNodes, bank%n.cfg.MemNodes, bytes, now)
}

// SendResponse injects a response packet from L2 bank `bank` toward SM `sm`
// at cycle `now` and returns the cycle at which it arrives at the SM.
func (n *Network) SendResponse(bank, sm, bytes int, now int64) int64 {
	n.respPackets++
	return n.send(ResponseNet, bank%n.cfg.MemNodes, sm%n.cfg.SMNodes, bytes, now)
}

// ZeroLoadLatency returns the latency of a packet of the given size through
// an idle network.
func (n *Network) ZeroLoadLatency(bytes int) int64 {
	return int64(n.stages) * (n.flits(bytes) + int64(n.cfg.HopLatency))
}

// Packets returns the number of request and response packets carried.
func (n *Network) Packets() (requests, responses uint64) {
	return n.reqPackets, n.respPackets
}

// AverageLatency returns the mean end-to-end packet latency in cycles.
func (n *Network) AverageLatency() float64 {
	total := n.reqPackets + n.respPackets
	if total == 0 {
		return 0
	}
	return float64(n.totalLat) / float64(total)
}

// String describes the topology.
func (n *Network) String() string {
	return fmt.Sprintf("butterfly{%d SM + %d mem nodes, %d stages, radix %d, %dB flits}",
		n.cfg.SMNodes, n.cfg.MemNodes, n.stages, n.cfg.Radix, n.cfg.FlitBytes)
}

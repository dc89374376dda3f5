// Package cbf implements the paper's NVM-CBF: the counting Bloom filters
// (CBFs) that FUSE's associativity-approximation logic uses to narrow tag
// searches, with their counter arrays laid out in one 2-D STT-MRAM (MTJ)
// island so that a membership test completes within a single STT-MRAM read
// cycle.
package cbf

import "fmt"

// hashSeed values give each hash function an independent mixing constant.
// They only need to be distinct odd 64-bit constants.
var hashSeeds = [8]uint64{
	0x9e3779b97f4a7c15,
	0xc2b2ae3d27d4eb4f,
	0x165667b19e3779f9,
	0x27d4eb2f165667c5,
	0x85ebca77c2b2ae63,
	0xff51afd7ed558ccd,
	0xc4ceb9fe1a85ec53,
	0x2545f4914f6cdd1d,
}

// MaxHashFunctions is the maximum number of hash functions supported.
const MaxHashFunctions = len(hashSeeds)

// counterMax is the value at which the NVM-CBF's 2-bit counters saturate.
const counterMax = 3

// mix64 is a Murmur3-style 64-bit finaliser used as the hash core.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NVMCBF models the paper's STT-MRAM-based CBF array: `count` CBFs of `slots`
// 2-bit counters each share one 2-D MTJ structure and peripheral circuitry.
// Blocks are partitioned across the CBFs (FUSE partitions the STT-MRAM tag
// array into `count` regions), and each CBF sets or tests `hashes` of its
// counters per block. A test completes within a single STT-MRAM read;
// increments and decrements overlap with the corresponding data-array write.
type NVMCBF struct {
	// counters holds every CBF's counters in one array, CBF r at
	// [r*slots, (r+1)*slots).
	counters []uint8
	count    int
	slots    int
	hashes   int
	// TestLatency is the membership-test latency in cycles (one STT-MRAM
	// read; the paper's Cadence/CACTI analysis reports 591 ps, under one
	// cache cycle).
	TestLatency int
}

// NewNVMCBF builds an NVM-CBF array of `count` CBFs, each with the given
// slots and hash functions (the paper's configuration is 128 CBFs x 16 2-bit
// counters with 3 hash functions; the Figure 20 sensitivity study also
// explores 32-128 slots and 1-5 hash functions). Arguments are clamped to at
// least 1; more than MaxHashFunctions hash functions are truncated.
func NewNVMCBF(count, slots, hashes int) *NVMCBF {
	count, slots = max(count, 1), max(slots, 1)
	hashes = min(max(hashes, 1), MaxHashFunctions)
	return &NVMCBF{
		counters:    make([]uint8, count*slots),
		count:       count,
		slots:       slots,
		hashes:      hashes,
		TestLatency: 1,
	}
}

// PartitionFor maps a block address to its CBF region.
func (n *NVMCBF) PartitionFor(block uint64) int {
	return int(mix64(block) % uint64(n.count))
}

// key returns the index of the counter that hash function i selects for the
// block in the CBF starting at base. The hash functions are evaluated one at
// a time so the membership operations — the single hottest path of the
// whole simulator — never materialise an index slice on the heap.
func (n *NVMCBF) key(base, i int, block uint64) int {
	return base + int(mix64(block^hashSeeds[i])%uint64(n.slots))
}

// Insert registers a block in its region's CBF ("increment" in the paper).
// Counters saturate at the 2-bit maximum instead of wrapping.
func (n *NVMCBF) Insert(block uint64) {
	base := n.PartitionFor(block) * n.slots
	for i := 0; i < n.hashes; i++ {
		if k := n.key(base, i, block); n.counters[k] < counterMax {
			n.counters[k]++
		}
	}
}

// Remove unregisters a block from its region's CBF ("decrement"). Only a
// registered block may be removed: FUSE issues a decrement only when a
// registered block leaves the STT-MRAM bank, and any other decrement would
// corrupt shared counters and create false negatives. Counters stop at zero,
// so a counter that saturated under several blocks does not wrap.
func (n *NVMCBF) Remove(block uint64) {
	base := n.PartitionFor(block) * n.slots
	for i := 0; i < n.hashes; i++ {
		if k := n.key(base, i, block); n.counters[k] > 0 {
			n.counters[k]--
		}
	}
}

// Test reports whether the block is probably registered: false only when it
// is definitely absent ("negative"), true when all its counters are non-zero
// ("positive", possibly false).
func (n *NVMCBF) Test(block uint64) bool {
	base := n.PartitionFor(block) * n.slots
	for i := 0; i < n.hashes; i++ {
		if n.counters[n.key(base, i, block)] == 0 {
			return false
		}
	}
	return true
}

// AreaBytes returns the storage the CBF array occupies, in bytes (the paper's
// configuration of 128 CBFs x 16 2-bit counters is 512 B).
func (n *NVMCBF) AreaBytes() int { return len(n.counters) * 2 / 8 }

// String summarises the array configuration.
func (n *NVMCBF) String() string {
	return fmt.Sprintf("NVM-CBF{%d filters x %d slots, %d hashes}", n.count, n.slots, n.hashes)
}

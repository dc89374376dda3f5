// Package cbf implements the counting Bloom filters (CBFs) that FUSE's
// associativity-approximation logic uses to narrow tag searches, including
// the paper's NVM-CBF variant: the CBF counter arrays are laid out in a 2-D
// STT-MRAM (MTJ) island so that a membership test completes within a single
// STT-MRAM read cycle.
package cbf

import (
	"fmt"

	"fuse/internal/mem"
)

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

// mix64 is a Murmur3-style 64-bit finaliser used as the hash core.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// CountingBloomFilter is a single counting Bloom filter: k hash functions
// over an array of small saturating counters.
type CountingBloomFilter struct {
	counters   []uint8
	hashes     int
	counterMax uint8

	// Accuracy bookkeeping (used for the Figure 20 analysis): the filter
	// tracks the true membership multiset to label test results as
	// true/false positives/negatives. Its population depends on the data,
	// so the table starts at truthInitial elements and grows.
	truth mem.BlockTable[int]

	tests         uint64
	falsePositive uint64
}

// New creates a counting Bloom filter with the given number of counter slots,
// hash functions and counter width in bits. Arguments are clamped to sane
// minima; more than MaxHashFunctions hash functions are truncated.
func New(slots, hashes, counterBits int) *CountingBloomFilter {
	if slots <= 0 {
		slots = 1
	}
	if hashes <= 0 {
		hashes = 1
	}
	if hashes > MaxHashFunctions {
		hashes = MaxHashFunctions
	}
	if counterBits <= 0 {
		counterBits = 2
	}
	if counterBits > 8 {
		counterBits = 8
	}
	return &CountingBloomFilter{
		counters:   make([]uint8, slots),
		hashes:     hashes,
		counterMax: uint8(1<<counterBits - 1),
		truth:      mem.NewBlockTable[int](truthInitial),
	}
}

// truthInitial is the ground-truth table's starting size: the paper's NVM-CBF
// spreads a 512-block STT-MRAM bank over 128 filters, about 4 blocks each.
const truthInitial = 8

// Slots returns the number of counters.
func (f *CountingBloomFilter) Slots() int { return len(f.counters) }

// Hashes returns the number of hash functions.
func (f *CountingBloomFilter) Hashes() int { return f.hashes }

// key returns the counter index selected by hash function i for x. The hash
// functions are evaluated one at a time so the membership operations — the
// single hottest path of the whole simulator — never materialise an index
// slice on the heap.
func (f *CountingBloomFilter) key(i int, x uint64) int {
	return int(mix64(x^hashSeeds[i]) % uint64(len(f.counters)))
}

// Insert increments the counters for x ("increment" operation in the paper).
func (f *CountingBloomFilter) Insert(x uint64) {
	for i := 0; i < f.hashes; i++ {
		if k := f.key(i, x); f.counters[k] < f.counterMax {
			f.counters[k]++
		}
	}
	if n := f.truth.Ptr(x); n != nil {
		*n++
	} else {
		f.truth.Put(x, 1)
	}
}

// Remove decrements the counters for x ("decrement"). Removing an element
// that was never inserted is a caller bug and is ignored: in the FUSE design
// a decrement is only ever issued when a block that was registered in the
// CBF is evicted from the STT-MRAM bank, so a spurious decrement would
// corrupt shared counters and create false negatives.
func (f *CountingBloomFilter) Remove(x uint64) {
	n := f.truth.Ptr(x)
	if n == nil {
		return
	}
	for i := 0; i < f.hashes; i++ {
		if k := f.key(i, x); f.counters[k] > 0 {
			f.counters[k]--
		}
	}
	if *n > 1 {
		*n--
	} else {
		f.truth.Delete(x)
	}
}

// Test reports whether x is (probably) present: it returns false only when x
// is definitely absent ("negative"), true when all counters are non-zero
// ("positive", possibly false).
func (f *CountingBloomFilter) Test(x uint64) bool { return f.RepeatTest(x, 1) }

// RepeatTest performs n Tests of x against the unchanged filter — moving
// every counter the n tests would have moved — while hashing x only once,
// and returns their common answer.
func (f *CountingBloomFilter) RepeatTest(x uint64, n uint64) bool {
	f.tests += n
	for i := 0; i < f.hashes; i++ {
		if f.counters[f.key(i, x)] == 0 {
			return false
		}
	}
	if !f.Contains(x) {
		f.falsePositive += n
	}
	return true
}

// Contains reports ground-truth membership (for testing and accuracy
// accounting; real hardware does not have this).
func (f *CountingBloomFilter) Contains(x uint64) bool {
	_, ok := f.truth.Get(x)
	return ok
}

// Tests returns the number of membership tests performed.
func (f *CountingBloomFilter) Tests() uint64 { return f.tests }

// FalsePositives returns the number of positive answers for absent elements.
func (f *CountingBloomFilter) FalsePositives() uint64 { return f.falsePositive }

// FalsePositiveRate returns false positives / tests.
func (f *CountingBloomFilter) FalsePositiveRate() float64 {
	if f.tests == 0 {
		return 0
	}
	return float64(f.falsePositive) / float64(f.tests)
}

// NVMCBF models the paper's STT-MRAM-based CBF array: `count` independent
// CBFs share one 2-D MTJ structure and peripheral circuitry. Elements are
// partitioned across CBFs by a partition function supplied by the caller
// (FUSE partitions the STT-MRAM tag array into `count` regions). A test
// completes within a single STT-MRAM read; increments and decrements overlap
// with the corresponding data-array write.
type NVMCBF struct {
	filters []*CountingBloomFilter
	// TestLatency is the membership-test latency in cycles (one STT-MRAM
	// read; the paper's Cadence/CACTI analysis reports 591 ps, under one
	// cache cycle).
	TestLatency int
	// UpdateLatency is the increment/decrement latency in cycles; it is
	// hidden behind the data-array write in FUSE.
	UpdateLatency int
}

// NewNVMCBF builds an NVM-CBF array of `count` filters, each with the given
// slots and hash functions and 2-bit counters (the paper's configuration is
// 128 CBFs x 16 2-bit counters with 3 hash functions; the Figure 20
// sensitivity study also explores 32-128 slots and 1-5 hash functions).
func NewNVMCBF(count, slots, hashes int) *NVMCBF {
	if count <= 0 {
		count = 1
	}
	n := &NVMCBF{
		filters:       make([]*CountingBloomFilter, count),
		TestLatency:   1,
		UpdateLatency: 1,
	}
	for i := range n.filters {
		n.filters[i] = New(slots, hashes, 2)
	}
	return n
}

// Count returns the number of CBFs in the array.
func (n *NVMCBF) Count() int { return len(n.filters) }

// Filter returns the i-th CBF (for region i of the partitioned tag array).
func (n *NVMCBF) Filter(i int) *CountingBloomFilter {
	return n.filters[i%len(n.filters)]
}

// PartitionFor maps a block address to its CBF region.
func (n *NVMCBF) PartitionFor(block uint64) int {
	return int(mix64(block) % uint64(len(n.filters)))
}

// Insert registers a block in its region's CBF.
func (n *NVMCBF) Insert(block uint64) { n.Filter(n.PartitionFor(block)).Insert(block) }

// Remove unregisters a block from its region's CBF.
func (n *NVMCBF) Remove(block uint64) { n.Filter(n.PartitionFor(block)).Remove(block) }

// Test reports whether the block is probably present in its region, and the
// region index that would need to be searched.
func (n *NVMCBF) Test(block uint64) (bool, int) {
	region := n.PartitionFor(block)
	return n.Filter(region).Test(block), region
}

// RepeatTest performs n Tests of the block against the unchanged array (see
// CountingBloomFilter.RepeatTest) and returns their common answer.
func (n *NVMCBF) RepeatTest(block uint64, count uint64) bool {
	return n.Filter(n.PartitionFor(block)).RepeatTest(block, count)
}

// FalsePositiveRate aggregates the false-positive rate across all CBFs.
func (n *NVMCBF) FalsePositiveRate() float64 {
	var fp, tests uint64
	for _, f := range n.filters {
		fp += f.FalsePositives()
		tests += f.Tests()
	}
	if tests == 0 {
		return 0
	}
	return float64(fp) / float64(tests)
}

// Tests returns the total number of membership tests across all CBFs.
func (n *NVMCBF) Tests() uint64 {
	var t uint64
	for _, f := range n.filters {
		t += f.Tests()
	}
	return t
}

// AreaBytes returns the storage the CBF array occupies, in bytes (the paper's
// configuration of 128 CBFs x 16 2-bit counters is 512 B).
func (n *NVMCBF) AreaBytes() int {
	if len(n.filters) == 0 {
		return 0
	}
	bitsPerFilter := n.filters[0].Slots() * 2
	return len(n.filters) * bitsPerFilter / 8
}

// String summarises the array configuration.
func (n *NVMCBF) String() string {
	return fmt.Sprintf("NVM-CBF{%d filters x %d slots, %d hashes}",
		len(n.filters), n.filters[0].Slots(), n.filters[0].Hashes())
}

package core

import (
	"fuse/internal/cbf"
)

// ApproxLogic is the associativity-approximation logic of Section III-B: it
// lets the STT-MRAM bank behave like a fully-associative cache while using
// only a handful of parallel tag comparators. The whole tag array is
// partitioned into regions, each guarded by a counting Bloom filter; a
// membership test narrows the search to one region, which the polling logic
// then scans with `comparators` parallel comparators per cycle.
type ApproxLogic struct {
	filters     *cbf.NVMCBF
	comparators int
	regionTags  int
}

// NewApproxLogic builds the approximation logic for an STT-MRAM bank holding
// `blocks` lines, with `cbfCount` counting Bloom filters of `cbfSlots`
// counters each, `hashes` hash functions and `comparators` parallel tag
// comparators.
func NewApproxLogic(blocks, cbfCount, cbfSlots, hashes, comparators int) *ApproxLogic {
	if comparators <= 0 {
		comparators = 1
	}
	if cbfCount <= 0 {
		cbfCount = 1
	}
	region := blocks / cbfCount
	if region <= 0 {
		region = 1
	}
	return &ApproxLogic{
		filters:     cbf.NewNVMCBF(cbfCount, cbfSlots, hashes),
		comparators: comparators,
		regionTags:  region,
	}
}

// Register records that a block now resides in the STT-MRAM bank.
func (a *ApproxLogic) Register(block uint64) { a.filters.Insert(block) }

// Unregister records that a block left the STT-MRAM bank.
func (a *ApproxLogic) Unregister(block uint64) { a.filters.Remove(block) }

// searchIterations returns how many polling cycles are needed to scan one
// region with the available comparators.
func (a *ApproxLogic) searchIterations() int {
	iters := (a.regionTags + a.comparators - 1) / a.comparators
	if iters < 1 {
		iters = 1
	}
	return iters
}

// Lookup models a tag search for the block. It returns:
//
//	mayHit  - whether the tag array must actually be consulted (CBF positive)
//	cycles  - the number of cycles the search occupies the approximation logic
//
// A CBF-negative result needs only the single-cycle membership test. A
// CBF-positive result costs the test plus the polling iterations over the
// narrowed region; if the positive was false (the block is not actually
// present), the polling logic wastes those iterations, which is exactly the
// cost the paper's Figure 20 sensitivity study quantifies.
func (a *ApproxLogic) Lookup(block uint64, actuallyPresent bool) (mayHit bool, cycles int) {
	cycles = a.filters.TestLatency
	if !a.filters.Test(block) {
		return false, cycles
	}
	cycles += a.searchIterations()
	if !actuallyPresent {
		// The polling logic exhausts the region before concluding a miss.
		cycles += a.searchIterations()
	}
	return true, cycles
}

// Package mem defines the basic memory-request vocabulary shared by every
// level of the simulated GPU memory hierarchy: request records,
// access kinds, block-address arithmetic and the read-level classification
// used throughout the FUSE design.
package mem

import "fmt"

// BlockSize is the cache block (line) size in bytes used by the whole
// hierarchy. The paper uses 128-byte blocks: one warp of 32 threads each
// touching 4 bytes produces a single 128-byte coalesced access.
const BlockSize = 128

// BlockShift is log2(BlockSize).
const BlockShift = 7

// AccessKind distinguishes reads from writes at a cache interface.
type AccessKind uint8

const (
	// Read is a load (or a cache-fill read from a lower level).
	Read AccessKind = iota
	// Write is a store (or a write-back toward a lower level).
	Write
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// ReadLevel is the paper's classification of a data block by its lifetime
// access pattern (Section III-A, Figure 6).
type ReadLevel uint8

const (
	// WriteMultiple (WM) blocks receive multiple writes during their
	// lifetime; they belong in SRAM where writes are cheap.
	WriteMultiple ReadLevel = iota
	// ReadIntensive blocks see a few writes and many reads.
	ReadIntensive
	// WORM (write-once-read-multiple) blocks are written exactly once and
	// then only read; they are the ideal tenants of the STT-MRAM bank.
	WORM
	// WORO (write-once-read-once) blocks are touched once and never
	// re-referenced; caching them is pointless, so they are evicted to (or
	// bypassed toward) the L2.
	WORO
)

// String implements fmt.Stringer.
func (l ReadLevel) String() string {
	switch l {
	case WriteMultiple:
		return "WM"
	case ReadIntensive:
		return "read-intensive"
	case WORM:
		return "WORM"
	case WORO:
		return "WORO"
	default:
		return fmt.Sprintf("ReadLevel(%d)", uint8(l))
	}
}

// ReadLevelCount is the number of distinct read levels.
const ReadLevelCount = 4

// Request is a single memory reference as seen by a cache or memory
// controller. Addresses are byte addresses; most components operate on the
// block address (Addr >> BlockShift).
type Request struct {
	// Addr is the byte address of the access.
	Addr uint64
	// PC is the program counter of the load/store instruction that issued
	// the access. The read-level predictor indexes its tables by a partial
	// PC ("signature").
	PC uint64
	// Kind says whether this is a read or a write.
	Kind AccessKind
	// SM identifies the streaming multiprocessor that issued the request.
	SM int
	// Warp identifies the warp within the SM.
	Warp int
	// Issue is the simulation cycle at which the request entered the
	// memory system (used for latency accounting).
	Issue int64
}

// BlockAddr returns the block-aligned address of the request.
func (r Request) BlockAddr() uint64 { return BlockAlign(r.Addr) }

// BlockAlign rounds a byte address down to its containing block.
func BlockAlign(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// BlockIndex returns the block number (address divided by the block size).
func BlockIndex(addr uint64) uint64 { return addr >> BlockShift }

// String implements fmt.Stringer for debugging.
func (r Request) String() string {
	return fmt.Sprintf("%s@%#x pc=%#x sm=%d warp=%d", r.Kind, r.Addr, r.PC, r.SM, r.Warp)
}

package core

// swapEntry is one 128-byte data register of the swap buffer.
type swapEntry struct {
	valid bool
	block uint64
	pc    uint64
	dirty bool
}

// SwapBuffer models the small register file that crosses the SRAM/STT-MRAM
// bank boundary (Section IV-A). A block evicted from SRAM is parked here so
// the SRAM way can be reused immediately; the matching "F" command in the tag
// queue later migrates the data into the STT-MRAM bank. While a block sits in
// the swap buffer it is still logically present in the L1D, so lookups snoop
// it (FUSE avoids real snooping hardware by pairing the buffer with the
// FIFO-ordered tag queue; the functional effect is the same).
type SwapBuffer struct {
	entries []swapEntry
}

// NewSwapBuffer creates a swap buffer with the given number of 128-byte
// registers (3 in the paper's design). A size of zero disables the buffer:
// every operation reports "full".
func NewSwapBuffer(size int) *SwapBuffer {
	if size < 0 {
		size = 0
	}
	return &SwapBuffer{entries: make([]swapEntry, size)}
}

// Capacity returns the number of registers.
func (s *SwapBuffer) Capacity() int { return len(s.entries) }

// Occupancy returns the number of valid registers.
func (s *SwapBuffer) Occupancy() int {
	n := 0
	for _, e := range s.entries {
		if e.valid {
			n++
		}
	}
	return n
}

// Full reports whether no register is free.
func (s *SwapBuffer) Full() bool { return s.Occupancy() == len(s.entries) }

// Insert parks an evicted block in a free register. It returns false when the
// buffer is full (the caller must then stall, exactly like the unoptimised
// Hybrid design does on every migration).
func (s *SwapBuffer) Insert(block, pc uint64, dirty bool) bool {
	for i := range s.entries {
		if !s.entries[i].valid {
			s.entries[i] = swapEntry{valid: true, block: block, pc: pc, dirty: dirty}
			return true
		}
	}
	return false
}

// Lookup reports whether the block is currently parked in the buffer.
func (s *SwapBuffer) Lookup(block uint64) bool {
	for i := range s.entries {
		if s.entries[i].valid && s.entries[i].block == block {
			return true
		}
	}
	return false
}

// Remove releases the register holding the block (when its "F" command has
// been retired into the STT-MRAM bank, or when a hit pulled it back into
// SRAM). It returns the entry's dirty bit and whether the block was present.
func (s *SwapBuffer) Remove(block uint64) (dirty bool, ok bool) {
	for i := range s.entries {
		if s.entries[i].valid && s.entries[i].block == block {
			dirty = s.entries[i].dirty
			s.entries[i] = swapEntry{}
			return dirty, true
		}
	}
	return false, false
}

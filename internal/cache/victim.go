package cache

import "fuse/internal/mem"

// VictimCache is a small fully-associative buffer that catches blocks evicted
// from a primary cache (Jouppi-style). The paper's related-work section
// argues such a buffer is too small for GPUs; we implement it so the claim
// can be tested, and because the simplest hybrid baseline ("use STT-MRAM as a
// victim buffer of SRAM") is expressed with it.
type VictimCache struct {
	store *TagStore

	hits   uint64
	misses uint64
}

// NewVictimCache creates a fully-associative victim cache holding `blocks`
// lines, managed FIFO.
func NewVictimCache(blocks int) *VictimCache {
	if blocks <= 0 {
		blocks = 1
	}
	return &VictimCache{store: NewTagStore(1, blocks, FIFO)}
}

// Capacity returns the number of lines the victim cache can hold.
func (v *VictimCache) Capacity() int { return v.store.Ways() }

// Insert places an evicted block into the victim cache, returning the block
// displaced from the victim cache itself (Valid=false if none).
func (v *VictimCache) Insert(block uint64, pc uint64, dirty bool) Line {
	evicted, line := v.store.Insert(block, pc, false, mem.WORO)
	line.Dirty = dirty
	return evicted
}

// Probe checks whether the block is present and, if so, removes it (a victim
// hit moves the line back to the primary cache). It returns the stored line
// and whether it was found.
func (v *VictimCache) Probe(block uint64) (Line, bool) {
	if _, _, hit := v.store.Lookup(block); hit {
		v.hits++
		return v.store.Invalidate(block), true
	}
	v.misses++
	return Line{}, false
}

// HitRate returns the fraction of probes that hit.
func (v *VictimCache) HitRate() float64 {
	total := v.hits + v.misses
	if total == 0 {
		return 0
	}
	return float64(v.hits) / float64(total)
}

// Occupancy returns the number of valid lines currently held.
func (v *VictimCache) Occupancy() int { return v.store.Occupancy() }

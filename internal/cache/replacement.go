// Package cache provides the building blocks shared by every cache in the
// simulated hierarchy: a set-associative/fully-associative tag store with
// LRU or FIFO replacement, and a GPU-style miss status holding register
// (MSHR) with destination bits and request merging.
package cache

import "fmt"

// ReplacementKind selects the victim-selection policy of a tag store.
type ReplacementKind uint8

const (
	// LRU evicts the least recently used way. The paper uses LRU for the
	// SRAM banks and for the L2 cache.
	LRU ReplacementKind = iota
	// FIFO evicts the oldest-inserted way. The paper uses FIFO for the
	// (approximately) fully-associative STT-MRAM bank because true LRU is
	// not affordable at 512 ways.
	FIFO
)

// String implements fmt.Stringer.
func (k ReplacementKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("ReplacementKind(%d)", uint8(k))
	}
}

// replacement tracks the victim-selection state of every set of one tag
// store. Its state lives in flat per-store arrays indexed by the position
// set*ways+way (or by set), so a store carries a fixed handful of slices
// however many sets it has.
//
// Each set keeps an intrusive doubly linked list of its valid ways, from
// least to most recently used (LRU) or from oldest to newest insertion
// (FIFO): the head is the victim. Moving, removing and evicting a way are
// O(1), where a per-set order slice needed a search and a memmove over up
// to 512 ways.
type replacement struct {
	kind ReplacementKind
	ways int
	// prev and next link the ways of a set's list (-1 ends the list); in
	// marks the positions currently linked.
	prev, next []int32
	in         []bool
	// head and tail are each set's least and most recent way (-1 when the
	// list is empty).
	head, tail []int32
}

func newReplacement(kind ReplacementKind, sets, ways int) replacement {
	r := replacement{
		kind: kind,
		ways: ways,
		prev: make([]int32, sets*ways),
		next: make([]int32, sets*ways),
		in:   make([]bool, sets*ways),
		head: make([]int32, sets),
		tail: make([]int32, sets),
	}
	for s := range r.head {
		r.head[s], r.tail[s] = -1, -1
	}
	return r
}

// onInsert records that the given way was just filled.
func (r *replacement) onInsert(set, way int) {
	r.unlink(set, way)
	r.append(set, way)
}

// onAccess records a hit on the given way; FIFO ignores accesses.
func (r *replacement) onAccess(set, way int) {
	if r.kind == LRU {
		r.unlink(set, way)
		r.append(set, way)
	}
}

// onInvalidate removes the way from the bookkeeping.
func (r *replacement) onInvalidate(set, way int) { r.unlink(set, way) }

// append links the way in as the set's most recent entry.
func (r *replacement) append(set, way int) {
	pos := set*r.ways + way
	t := r.tail[set]
	r.prev[pos], r.next[pos] = t, -1
	r.in[pos] = true
	if t < 0 {
		r.head[set] = int32(way)
	} else {
		r.next[set*r.ways+int(t)] = int32(way)
	}
	r.tail[set] = int32(way)
}

// unlink takes the way out of the set's list (a no-op when it is not in it).
func (r *replacement) unlink(set, way int) {
	pos := set*r.ways + way
	if !r.in[pos] {
		return
	}
	r.in[pos] = false
	p, n := r.prev[pos], r.next[pos]
	if p < 0 {
		r.head[set] = n
	} else {
		r.next[set*r.ways+int(p)] = n
	}
	if n < 0 {
		r.tail[set] = p
	} else {
		r.prev[set*r.ways+int(n)] = p
	}
}

// victimAll selects the way to evict when every way of the set is valid:
// the head of the set's list.
func (r *replacement) victimAll(set int) int {
	if h := r.head[set]; h >= 0 {
		return int(h)
	}
	return 0
}

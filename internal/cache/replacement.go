// Package cache provides the building blocks shared by every cache in the
// simulated hierarchy: a set-associative/fully-associative tag store with
// pluggable replacement policies, and a GPU-style miss status holding
// register (MSHR) with destination bits and request merging.
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
	// PseudoLRU uses a binary-tree approximation of LRU, the usual
	// compromise for moderately associative SRAM arrays.
	PseudoLRU
)

// String implements fmt.Stringer.
func (k ReplacementKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case PseudoLRU:
		return "PseudoLRU"
	default:
		return fmt.Sprintf("ReplacementKind(%d)", uint8(k))
	}
}

// replacement tracks the victim-selection state of every set of one tag
// store. Its state lives in flat per-store arrays indexed by the position
// set*ways+way (or by set), so a store carries a fixed handful of slices
// however many sets it has.
//
// For LRU and FIFO each set keeps an intrusive doubly linked list of its
// valid ways, from least to most recently used (LRU) or from oldest to
// newest insertion (FIFO): the head is the victim. Moving, removing and
// evicting a way are O(1), where a per-set order slice needed a search and
// a memmove over up to 512 ways.
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
	// tree holds each set's pseudo-LRU decision bits, ways per set (nodes
	// 1..ways-1 of the implicit tree are used).
	tree []bool
}

func newReplacement(kind ReplacementKind, sets, ways int) replacement {
	r := replacement{kind: kind, ways: ways}
	switch kind {
	case LRU, FIFO:
		r.prev = make([]int32, sets*ways)
		r.next = make([]int32, sets*ways)
		r.in = make([]bool, sets*ways)
		r.head = make([]int32, sets)
		r.tail = make([]int32, sets)
	case PseudoLRU:
		r.tree = make([]bool, sets*ways)
	}
	r.reset()
	return r
}

// reset forgets every set's history.
func (r *replacement) reset() {
	clear(r.in)
	clear(r.tree)
	for s := range r.head {
		r.head[s], r.tail[s] = -1, -1
	}
}

// onInsert records that the given way was just filled.
func (r *replacement) onInsert(set, way int) {
	switch r.kind {
	case LRU, FIFO:
		r.unlink(set, way)
		r.append(set, way)
	case PseudoLRU:
		touchTree(r.setTree(set), r.ways, way)
	}
}

// onAccess records a hit on the given way.
func (r *replacement) onAccess(set, way int) {
	switch r.kind {
	case LRU:
		r.unlink(set, way)
		r.append(set, way)
	case FIFO:
		// FIFO ignores accesses.
	case PseudoLRU:
		touchTree(r.setTree(set), r.ways, way)
	}
}

// onInvalidate removes the way from the bookkeeping.
func (r *replacement) onInvalidate(set, way int) {
	switch r.kind {
	case LRU, FIFO:
		r.unlink(set, way)
	case PseudoLRU:
		// Nothing to do: invalid ways are preferred victims anyway.
	}
}

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
// for LRU/FIFO the head of the list, for pseudo-LRU the leaf the tree bits
// point to.
func (r *replacement) victimAll(set int) int {
	switch r.kind {
	case LRU, FIFO:
		if h := r.head[set]; h >= 0 {
			return int(h)
		}
		return 0
	case PseudoLRU:
		return treeLeaf(r.setTree(set), r.ways)
	default:
		return 0
	}
}

// setTree returns the set's window of the pseudo-LRU bits.
func (r *replacement) setTree(set int) []bool {
	return r.tree[set*r.ways : (set+1)*r.ways]
}

// touchTree flips the pseudo-LRU tree bits along the path to `way` so that
// the path points away from it.
func touchTree(tree []bool, ways, way int) {
	if ways <= 1 {
		return
	}
	node := 1
	// Walk from the root toward the leaf corresponding to `way`.
	span := ways
	lo := 0
	for span > 1 {
		half := span / 2
		goRight := way >= lo+half
		if node < len(tree) {
			// Point the bit away from the accessed half.
			tree[node] = !goRight
		}
		if goRight {
			lo += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
		span = half
	}
}

// treeLeaf follows the pseudo-LRU bits from the root to the preferred victim
// leaf.
func treeLeaf(tree []bool, ways int) int {
	node := 1
	lo := 0
	span := ways
	for span > 1 {
		half := span / 2
		right := false
		if node < len(tree) {
			right = tree[node]
		}
		if right {
			lo += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
		span = half
	}
	return lo
}

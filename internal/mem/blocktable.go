package mem

import (
	"fmt"
	"math/bits"
)

// emptyKey marks a free slot of a BlockTable. Block addresses are
// BlockSize-aligned, so the all-ones pattern never collides with one.
const emptyKey = ^uint64(0)

// blockSlot is one BlockTable slot: the key and its value side by side, so a
// probe that hits reads one cache line.
type blockSlot[V any] struct {
	key uint64
	val V
}

// BlockTable is a hash map from block address to V for the simulator's hot
// paths: open addressing with linear probing over a power-of-two slot array,
// backward-shift deletion (no tombstones, so probe runs never lengthen with
// churn) and emptyKey as the free-slot sentinel. A table never grows: it is
// made for its structure's bound (MSHR entries, warps, tag-store lines),
// keeps at most half its slots full, and panics on a Put past that bound.
// Iteration is deliberately absent: no result may depend on hash order. The
// zero value has no slots; make tables with NewBlockTable.
type BlockTable[V any] struct {
	slots []blockSlot[V]
	// shift turns the 64-bit Fibonacci hash of a key into a slot index.
	shift uint8
	n     int
}

// NewBlockTable returns a table with room for n entries, rounded up to a
// power of two: its bound.
func NewBlockTable[V any](n int) BlockTable[V] {
	size := 2 << bits.Len(uint(max(n, 1)-1))
	t := BlockTable[V]{
		slots: make([]blockSlot[V], size),
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
	}
	for i := range t.slots {
		t.slots[i].key = emptyKey
	}
	return t
}

// home returns the slot a key hashes to. Fibonacci hashing takes the high
// bits of the product, which spreads the zero low bits of block addresses.
func (t *BlockTable[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// Len returns the number of entries.
func (t *BlockTable[V]) Len() int { return t.n }

// find returns the slot holding key, or -1. Like every probe loop here it
// works on a local copy of the slot slice, which the stores through t would
// otherwise force it to reload.
func (t *BlockTable[V]) find(key uint64) int {
	slots := t.slots
	mask := len(slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch slots[i].key {
		case key:
			return i
		case emptyKey:
			return -1
		}
	}
}

// Get returns the value stored for key and whether it is present.
func (t *BlockTable[V]) Get(key uint64) (V, bool) {
	if i := t.find(key); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to the value stored for key, or nil when key is
// absent. The pointer is valid until the next Put or Delete.
func (t *BlockTable[V]) Ptr(key uint64) *V {
	if i := t.find(key); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Put stores val for key. Key emptyKey is reserved and panics: it is never a
// block address. A new key past the table's bound panics too.
func (t *BlockTable[V]) Put(key uint64, val V) {
	if key == emptyKey {
		panic("mem: BlockTable key ^0 is reserved")
	}
	slots := t.slots
	mask := len(slots) - 1
	i := t.home(key)
	for ; slots[i].key != emptyKey; i = (i + 1) & mask {
		if slots[i].key == key {
			slots[i].val = val
			return
		}
	}
	if 2*(t.n+1) > len(slots) {
		tableFull(len(slots) / 2)
	}
	slots[i] = blockSlot[V]{key: key, val: val}
	t.n++
}

// tableFull reports a Put past a table's bound. It stays out of line so that
// the message's allocation is not inlined into Put.
//
//go:noinline
func tableFull(bound int) {
	panic(fmt.Sprintf("mem: BlockTable full: Put past its bound of %d entries", bound))
}

// Delete removes key and returns the value it held and whether it was
// present. The entries after it in its probe run shift back over the hole,
// each as far as its home slot allows, so no tombstone is left behind.
func (t *BlockTable[V]) Delete(key uint64) (V, bool) {
	var zero V
	hole := t.find(key)
	if hole < 0 {
		return zero, false
	}
	slots := t.slots
	val := slots[hole].val
	mask := len(slots) - 1
	for j := (hole + 1) & mask; slots[j].key != emptyKey; j = (j + 1) & mask {
		// The entry at j may fill the hole only if its home is not in the
		// cyclic range (hole, j]: probing from there must still reach it.
		if (j-t.home(slots[j].key))&mask >= (j-hole)&mask {
			slots[hole] = slots[j]
			hole = j
		}
	}
	slots[hole] = blockSlot[V]{key: emptyKey, val: zero}
	t.n--
	return val, true
}

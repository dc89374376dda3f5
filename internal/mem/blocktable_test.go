package mem

import (
	"math/rand/v2"
	"testing"
)

// checkTable verifies the linear-probing invariant — every entry is reachable
// from its home slot without crossing a free slot — and that the table holds
// exactly the reference map's entries.
func checkTable(t *testing.T, step string, got *BlockTable[int], want map[uint64]int) {
	t.Helper()
	mask := len(got.slots) - 1
	live := 0
	for i, s := range got.slots {
		if s.key == emptyKey {
			continue
		}
		live++
		for j := got.home(s.key); j != i; j = (j + 1) & mask {
			if got.slots[j].key == emptyKey {
				t.Fatalf("%s: key %#x in slot %d is cut off from its home %d by free slot %d",
					step, s.key, i, got.home(s.key), j)
			}
		}
		if v, ok := want[s.key]; !ok || v != s.val {
			t.Fatalf("%s: table holds %#x=%d, reference has %d (present %v)", step, s.key, s.val, v, ok)
		}
	}
	if live != len(want) || got.Len() != len(want) {
		t.Fatalf("%s: %d live slots, Len %d, reference %d entries", step, live, got.Len(), len(want))
	}
}

// TestBlockTableMatchesMap runs random Put/Get/Ptr/Delete/Len against a map
// reference. The key universe is small so that hits, overwrites and
// deletes of present keys are common, and the table is made for exactly the
// universe, so a run that holds every key at once fills it to its bound.
func TestBlockTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		universe := make([]uint64, 8+rng.IntN(120))
		for i := range universe {
			universe[i] = BlockAlign(rng.Uint64() &^ (1 << 63))
		}
		got := NewBlockTable[int](len(universe))
		want := map[uint64]int{}
		for op := 0; op < 4000; op++ {
			k := universe[rng.IntN(len(universe))]
			switch r := rng.IntN(100); {
			case r < 40:
				v := rng.Int()
				got.Put(k, v)
				want[k] = v
			case r < 60:
				v, ok := got.Get(k)
				w, wok := want[k]
				if ok != wok || v != w {
					t.Fatalf("seed %d op %d: Get(%#x) = %d,%v, want %d,%v", seed, op, k, v, ok, w, wok)
				}
			case r < 75:
				p := got.Ptr(k)
				if w, wok := want[k]; (p != nil) != wok || p != nil && *p != w {
					t.Fatalf("seed %d op %d: Ptr(%#x) disagrees with the reference", seed, op, k)
				}
				if p != nil {
					*p++
					want[k]++
				}
			default:
				v, ok := got.Delete(k)
				w, wok := want[k]
				if ok != wok || v != w {
					t.Fatalf("seed %d op %d: Delete(%#x) = %d,%v, want %d,%v", seed, op, k, v, ok, w, wok)
				}
				delete(want, k)
			}
			if got.Len() != len(want) {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, got.Len(), len(want))
			}
			if op%97 == 0 {
				checkTable(t, "periodic check", &got, want)
			}
		}
		checkTable(t, "final", &got, want)
	}
}

// TestBlockTableWrappedClusterDelete builds probe clusters that run past the
// last slot into the first ones, then deletes their members in random orders
// — from the middle of the cluster, on both sides of the wrap — checking the
// backward shift keeps every remaining key reachable.
func TestBlockTableWrappedClusterDelete(t *testing.T) {
	probe := NewBlockTable[int](8) // 16 slots, room for 8 entries
	size := len(probe.slots)
	// Keys hashing to the last two slots: a cluster of 7 of them occupies
	// slots 14, 15, 0, ..., 4.
	var tail []uint64
	for b := uint64(0); len(tail) < 7; b += BlockSize {
		if probe.home(b) >= size-2 {
			tail = append(tail, b)
		}
	}
	// A key hashing to slot 1 joins the wrapped part of the cluster.
	var wrapped uint64
	for b := uint64(BlockSize); ; b += BlockSize {
		if probe.home(b) == 1 {
			wrapped = b
			break
		}
	}
	keys := append(tail, wrapped)
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 200; trial++ {
		tab := NewBlockTable[int](8)
		want := map[uint64]int{}
		for i, k := range keys {
			tab.Put(k, i)
			want[k] = i
		}
		if tab.slots[0].key == emptyKey || tab.slots[size-1].key == emptyKey {
			t.Fatal("cluster does not wrap past the end of the table")
		}
		checkTable(t, "after inserts", &tab, want)
		for _, i := range rng.Perm(len(keys)) {
			if _, ok := tab.Delete(keys[i]); !ok {
				t.Fatalf("trial %d: Delete(%#x) missed", trial, keys[i])
			}
			delete(want, keys[i])
			checkTable(t, "after delete", &tab, want)
			for k, v := range want {
				if got, ok := tab.Get(k); !ok || got != v {
					t.Fatalf("trial %d: Get(%#x) = %d,%v after deleting %#x", trial, k, got, ok, keys[i])
				}
			}
		}
	}
}

// TestBlockTablePutPastBoundPanics fills a table to its bound, overwrites a
// held key (not a new entry), then puts one key more.
func TestBlockTablePutPastBoundPanics(t *testing.T) {
	tab := NewBlockTable[int](8)
	for i := 0; i < 8; i++ {
		tab.Put(uint64(i)*BlockSize, i)
	}
	tab.Put(0, 100)
	if v, _ := tab.Get(0); v != 100 || tab.Len() != 8 {
		t.Fatalf("overwrite at the bound: Get(0) = %d, Len %d", v, tab.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Put of a ninth key into a table made for 8 did not panic")
		}
	}()
	tab.Put(8*BlockSize, 8)
}

func TestBlockTableReservedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put of the reserved key did not panic")
		}
	}()
	tab := NewBlockTable[int](1)
	tab.Put(emptyKey, 1)
}

// BenchmarkBlockTable runs the two access mixes of the simulator's tables on
// a BlockTable and, as the base, on a Go map. "lookup" searches a full
// 512-entry table, the STT-MRAM bank's tag index, for held and absent blocks
// alike. "churn" is the MSHR pattern: a fixed population of 32 live blocks
// where each operation looks one up, retires the oldest and allocates a new
// one.
func BenchmarkBlockTable(b *testing.B) {
	keys := make([]uint64, 1<<12)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range keys {
		keys[i] = BlockAlign(rng.Uint64() >> 20)
	}
	const mask = 1<<12 - 1
	const held = 512
	b.Run("lookup/table", func(b *testing.B) {
		tab := NewBlockTable[int32](held)
		for i := 0; i < held; i++ {
			tab.Put(keys[i], int32(i))
		}
		var sink int32
		for i := 0; b.Loop(); i++ {
			v, _ := tab.Get(keys[(i*7)&(2*held-1)])
			sink += v
		}
		_ = sink
	})
	b.Run("lookup/map", func(b *testing.B) {
		m := make(map[uint64]int32, held)
		for i := 0; i < held; i++ {
			m[keys[i]] = int32(i)
		}
		var sink int32
		for i := 0; b.Loop(); i++ {
			sink += m[keys[(i*7)&(2*held-1)]]
		}
		_ = sink
	})
	const live = 32
	b.Run("churn/table", func(b *testing.B) {
		tab := NewBlockTable[int32](live)
		for i := 0; i < live; i++ {
			tab.Put(keys[i], int32(i))
		}
		var sink int32
		for i := live; b.Loop(); i++ {
			v, _ := tab.Get(keys[(i-live/2)&mask])
			sink += v
			tab.Delete(keys[(i-live)&mask])
			tab.Put(keys[i&mask], int32(i))
		}
		_ = sink
	})
	b.Run("churn/map", func(b *testing.B) {
		m := make(map[uint64]int32, live)
		for i := 0; i < live; i++ {
			m[keys[i]] = int32(i)
		}
		var sink int32
		for i := live; b.Loop(); i++ {
			sink += m[keys[(i-live/2)&mask]]
			delete(m, keys[(i-live)&mask])
			m[keys[i&mask]] = int32(i)
		}
		_ = sink
	})
}

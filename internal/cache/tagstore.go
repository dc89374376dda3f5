package cache

import (
	"fmt"

	"fuse/internal/mem"
)

// Line is the metadata of one cache block. The simulator does not store data
// contents, only the bookkeeping needed for timing and placement decisions.
type Line struct {
	// Valid marks the line as holding a block.
	Valid bool
	// Dirty marks the line as modified relative to the lower level.
	Dirty bool
	// Block is the block-aligned address held by the line.
	Block uint64
	// PC is the program counter of the instruction that allocated the
	// line; the read-level predictor needs it on eviction.
	PC uint64
	// Level is the read level predicted at allocation time (used by
	// Dy-FUSE to audit its predictions).
	Level mem.ReadLevel
	// InsertCycle and LastAccess are used for statistics and FIFO/LRU
	// style diagnostics.
	InsertCycle int64
	LastAccess  int64
	// Reads and Writes count accesses to the line since allocation; they
	// drive predictor training and the Figure 16 accuracy accounting.
	//fuselint:internalstat consumed indirectly: predictor training reads the line's age/stats via Observe paths, not this raw count; kept per-line for diagnostics
	Reads  uint64
	Writes uint64
}

// ResetCounters clears the per-lifetime access counters.
func (l *Line) ResetCounters() {
	l.Reads = 0
	l.Writes = 0
}

// invalidTag marks an empty way in the compact tag array. Block addresses
// are 128-byte aligned, so the all-ones pattern can never collide with one.
const invalidTag = ^uint64(0)

// TagStore is a set-associative tag array. A fully-associative store is
// simply a TagStore with a single set.
type TagStore struct {
	sets  int
	ways  int
	lines [][]Line
	repl  replacement

	// tags mirrors lines: tags[s][w] is the block held by a valid way and
	// invalidTag otherwise. Insert's free-way search scans this compact
	// array instead of the ~64-byte Line structs.
	tags [][]uint64

	// index maps every held block to the flat position set*ways+way of its
	// lowest-way copy, so a tag search in a highly associative store is one
	// map probe instead of a scan over up to 512 ways. It is nil for stores
	// with fewer than indexMinWays ways, whose searches scan tags. The
	// lowest way is what a scan finds first, which matters because a block
	// can be held twice: Insert does not check for presence, and the hybrid
	// L1D's tag queue can write a block the STT-MRAM bank already holds.
	index map[uint64]int32
	// dups counts valid lines that are not the indexed copy of their block.
	// While it is zero, removing an indexed line needs no rescan.
	dups int

	// valid counts each set's valid ways, so an insert into a full set goes
	// straight to the victim without scanning for a free way.
	valid []int32
	// occupancy counts the number of valid lines.
	occupancy int
}

// indexMinWays is the associativity from which a TagStore indexes its
// blocks. Scanning a few compact tags beats a map probe: with the index on
// the shared L2's 8-way sets, the L2's tag probes took more host time than
// the linear scan they replaced.
const indexMinWays = 16

// NewTagStore creates a tag store with the given geometry and replacement
// policy. It panics on non-positive geometry, which always indicates a
// configuration bug.
func NewTagStore(sets, ways int, kind ReplacementKind) *TagStore {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid tag store geometry %dx%d", sets, ways))
	}
	t := &TagStore{sets: sets, ways: ways}
	if ways >= indexMinWays {
		t.index = make(map[uint64]int32, sets*ways)
	}
	t.lines = make([][]Line, sets)
	t.repl = newReplacement(kind, sets, ways)
	t.tags = make([][]uint64, sets)
	t.valid = make([]int32, sets)
	for s := 0; s < sets; s++ {
		t.lines[s] = make([]Line, ways)
		t.tags[s] = make([]uint64, ways)
		for w := range t.tags[s] {
			t.tags[s][w] = invalidTag
		}
	}
	return t
}

// Sets returns the number of sets.
func (t *TagStore) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *TagStore) Ways() int { return t.ways }

// Blocks returns the total number of lines.
func (t *TagStore) Blocks() int { return t.sets * t.ways }

// Occupancy returns the number of valid lines.
func (t *TagStore) Occupancy() int { return t.occupancy }

// FullyAssociative reports whether the store has a single set.
func (t *TagStore) FullyAssociative() bool { return t.sets == 1 }

// SetIndex maps a block address to its set.
func (t *TagStore) SetIndex(block uint64) int {
	return int(mem.BlockIndex(block)) % t.sets
}

// Lookup searches for the block and returns the line and its way index. The
// returned pointer aliases the store; callers may update counters through it.
// It does not update replacement state; use Touch for that.
func (t *TagStore) Lookup(block uint64) (*Line, int, bool) {
	set, way := t.find(block)
	if way < 0 {
		return nil, -1, false
	}
	return &t.lines[set][way], way, true
}

// find returns the set and way of the block's lowest-way copy (way -1 when
// the block is absent).
func (t *TagStore) find(block uint64) (set, way int) {
	if t.index != nil {
		pos, ok := t.index[block]
		if !ok {
			return 0, -1
		}
		return int(pos) / t.ways, int(pos) % t.ways
	}
	set = t.SetIndex(block)
	for w, tag := range t.tags[set] {
		if tag == block {
			return set, w
		}
	}
	return set, -1
}

// Probe reports whether the block is present without touching any state.
func (t *TagStore) Probe(block uint64) bool {
	_, _, hit := t.Lookup(block)
	return hit
}

// Touch records a hit on the block at cycle now, updating the replacement
// state and the line's counters.
func (t *TagStore) Touch(block uint64, now int64, write bool) (*Line, bool) {
	set, way := t.find(block)
	if way < 0 {
		return nil, false
	}
	l := &t.lines[set][way]
	l.LastAccess = now
	if write {
		l.Writes++
		l.Dirty = true
	} else {
		l.Reads++
	}
	t.repl.onAccess(set, way)
	return l, true
}

// HasFreeWay reports whether the set for the given block has an invalid way.
func (t *TagStore) HasFreeWay(block uint64) bool {
	return int(t.valid[t.SetIndex(block)]) < t.ways
}

// Insert allocates a line for the block, evicting a victim if necessary. The
// returned evicted Line is a copy of the victim (Valid=false in the returned
// copy means no eviction happened). The new line's counters reflect the
// allocating access.
func (t *TagStore) Insert(block uint64, pc uint64, now int64, write bool, level mem.ReadLevel) (evicted Line, line *Line) {
	set := t.SetIndex(block)
	way := -1
	if int(t.valid[set]) < t.ways {
		for w, tag := range t.tags[set] {
			if tag == invalidTag {
				way = w
				break
			}
		}
	} else {
		way = t.repl.victimAll(set)
		evicted = t.lines[set][way]
		t.unindex(set, way, evicted.Block)
		t.repl.onInvalidate(set, way)
		t.valid[set]--
		t.occupancy--
	}
	t.tags[set][way] = block
	t.reindex(set, way, block)
	l := &t.lines[set][way]
	*l = Line{
		Valid:       true,
		Block:       block,
		PC:          pc,
		Level:       level,
		InsertCycle: now,
		LastAccess:  now,
	}
	if write {
		l.Writes = 1
		l.Dirty = true
	} else {
		l.Reads = 1
	}
	t.valid[set]++
	t.occupancy++
	t.repl.onInsert(set, way)
	return evicted, l
}

// Invalidate removes the block from the store and returns a copy of the line
// it occupied (Valid reports whether anything was removed).
func (t *TagStore) Invalidate(block uint64) Line {
	set, way := t.find(block)
	if way < 0 {
		return Line{}
	}
	t.unindex(set, way, block)
	l := &t.lines[set][way]
	old := *l
	*l = Line{}
	t.tags[set][way] = invalidTag
	t.repl.onInvalidate(set, way)
	t.valid[set]--
	t.occupancy--
	return old
}

// reindex records a new copy of block at (set, way) in the index; a copy
// below the one already indexed takes over the entry.
func (t *TagStore) reindex(set, way int, block uint64) {
	if t.index == nil {
		return
	}
	pos := int32(set*t.ways + way)
	if held, ok := t.index[block]; !ok {
		t.index[block] = pos
	} else {
		t.dups++
		if pos < held {
			t.index[block] = pos
		}
	}
}

// unindex drops the copy of block held at (set, way) from the index. When
// that copy was the indexed one and duplicates exist, the set is rescanned
// for the block's next-lowest copy, which takes over the index entry.
func (t *TagStore) unindex(set, way int, block uint64) {
	if t.index == nil {
		return
	}
	if t.index[block] != int32(set*t.ways+way) {
		t.dups-- // a shadowed duplicate: the indexed copy stays
		return
	}
	if t.dups > 0 {
		for w, tag := range t.tags[set] {
			if w != way && tag == block {
				t.dups--
				t.index[block] = int32(set*t.ways + w)
				return
			}
		}
	}
	delete(t.index, block)
}

// VictimFor returns a copy of the line that would be evicted if the block
// were inserted now, without modifying any state. Valid is false when the set
// still has a free way.
func (t *TagStore) VictimFor(block uint64) Line {
	set := t.SetIndex(block)
	if int(t.valid[set]) < t.ways {
		return Line{}
	}
	return t.lines[set][t.repl.victimAll(set)]
}

// ForEach calls fn for every valid line. Iteration order is deterministic
// (set-major, way-minor).
func (t *TagStore) ForEach(fn func(l *Line)) {
	for s := range t.lines {
		for w := range t.lines[s] {
			if t.lines[s][w].Valid {
				fn(&t.lines[s][w])
			}
		}
	}
}

// Reset invalidates every line.
func (t *TagStore) Reset() {
	for s := range t.lines {
		for w := range t.lines[s] {
			t.lines[s][w] = Line{}
			t.tags[s][w] = invalidTag
		}
	}
	t.repl.reset()
	clear(t.valid)
	clear(t.index)
	t.dups = 0
	t.occupancy = 0
}

package cache

import (
	"fmt"

	"fuse/internal/mem"
)

// Line is the metadata of one cache block. The simulator does not store data
// contents, only the bookkeeping needed for timing and placement decisions.
// The small fields lead so that a Line packs into 32 bytes.
type Line struct {
	// Valid marks the line as holding a block.
	Valid bool
	// Dirty marks the line as modified relative to the lower level.
	Dirty bool
	// Level is the read level predicted at allocation time (used by
	// Dy-FUSE to audit its predictions).
	Level mem.ReadLevel
	// Block is the block-aligned address held by the line.
	Block uint64
	// PC is the program counter of the instruction that allocated the
	// line; the read-level predictor needs it on eviction.
	PC uint64
	// Writes counts writes to the line since allocation; it drives the
	// Figure 16 accuracy accounting.
	Writes uint64
}

// invalidTag marks an empty way in the compact tag array. Block addresses
// are 128-byte aligned, so the all-ones pattern can never collide with one.
const invalidTag = ^uint64(0)

// TagStore is a set-associative tag array. A fully-associative store is
// simply a TagStore with a single set.
type TagStore struct {
	sets int
	ways int
	// lines holds every way's metadata, indexed by the position
	// set*ways+way.
	lines []Line
	repl  replacement

	// tags mirrors lines: tags[pos] is the block held by a valid way and
	// invalidTag otherwise. Insert's free-way search scans this compact
	// array instead of the Line structs.
	tags []uint64

	// index maps every held block to the position of its lowest-way copy,
	// so a tag search in a highly associative store is one table probe
	// instead of a scan over up to 512 ways. Only stores with at least
	// indexMinWays ways keep it (indexed); the others scan tags. The lowest
	// way is what a scan finds first, which matters because a block can be
	// held twice: Insert does not check for presence, and the hybrid L1D's
	// tag queue can write a block the STT-MRAM bank already holds. A store
	// holds at most sets*ways blocks, the size of the table.
	indexed bool
	index   mem.BlockTable[int32]
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
// blocks. Scanning a few compact tags beats a table probe: with an index on
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
	t := &TagStore{
		sets:    sets,
		ways:    ways,
		lines:   make([]Line, sets*ways),
		repl:    newReplacement(kind, sets, ways),
		tags:    make([]uint64, sets*ways),
		indexed: ways >= indexMinWays,
		valid:   make([]int32, sets),
	}
	if t.indexed {
		t.index = mem.NewBlockTable[int32](sets * ways)
	}
	for pos := range t.tags {
		t.tags[pos] = invalidTag
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
	set, pos := t.find(block)
	if pos < 0 {
		return nil, -1, false
	}
	return &t.lines[pos], pos - set*t.ways, true
}

// find returns the set and position of the block's lowest-way copy
// (position -1 when the block is absent).
func (t *TagStore) find(block uint64) (set, pos int) {
	if t.indexed {
		if p, ok := t.index.Get(block); ok {
			return int(p) / t.ways, int(p)
		}
		return 0, -1
	}
	set = t.SetIndex(block)
	base := set * t.ways
	for w, tag := range t.tags[base : base+t.ways] {
		if tag == block {
			return set, base + w
		}
	}
	return set, -1
}

// Probe reports whether the block is present without touching any state.
func (t *TagStore) Probe(block uint64) bool {
	_, _, hit := t.Lookup(block)
	return hit
}

// Touch records a hit on the block, updating the replacement state and the
// line's write count.
func (t *TagStore) Touch(block uint64, write bool) (*Line, bool) {
	set, pos := t.find(block)
	if pos < 0 {
		return nil, false
	}
	l := &t.lines[pos]
	if write {
		l.Writes++
		l.Dirty = true
	}
	t.repl.onAccess(set, pos-set*t.ways)
	return l, true
}

// Insert allocates a line for the block, evicting a victim if necessary. The
// returned evicted Line is a copy of the victim (Valid=false in the returned
// copy means no eviction happened). The new line's write count reflects the
// allocating access.
func (t *TagStore) Insert(block uint64, pc uint64, write bool, level mem.ReadLevel) (evicted Line, line *Line) {
	set := t.SetIndex(block)
	base := set * t.ways
	way := -1
	if int(t.valid[set]) < t.ways {
		for w, tag := range t.tags[base : base+t.ways] {
			if tag == invalidTag {
				way = w
				break
			}
		}
	} else {
		way = t.repl.victimAll(set)
		evicted = t.lines[base+way]
		t.unindex(base, way, evicted.Block)
		t.repl.onInvalidate(set, way)
		t.valid[set]--
		t.occupancy--
	}
	t.tags[base+way] = block
	t.reindex(base+way, block)
	l := &t.lines[base+way]
	*l = Line{Valid: true, Level: level, Block: block, PC: pc}
	if write {
		l.Writes = 1
		l.Dirty = true
	}
	t.valid[set]++
	t.occupancy++
	t.repl.onInsert(set, way)
	return evicted, l
}

// Invalidate removes the block from the store and returns a copy of the line
// it occupied (Valid reports whether anything was removed).
func (t *TagStore) Invalidate(block uint64) Line {
	set, pos := t.find(block)
	if pos < 0 {
		return Line{}
	}
	base := set * t.ways
	way := pos - base
	t.unindex(base, way, block)
	old := t.lines[pos]
	t.lines[pos] = Line{}
	t.tags[pos] = invalidTag
	t.repl.onInvalidate(set, way)
	t.valid[set]--
	t.occupancy--
	return old
}

// reindex records a new copy of block at position pos in the index; a copy
// below the one already indexed takes over the entry.
func (t *TagStore) reindex(pos int, block uint64) {
	if !t.indexed {
		return
	}
	if held := t.index.Ptr(block); held == nil {
		t.index.Put(block, int32(pos))
	} else {
		t.dups++
		if int32(pos) < *held {
			*held = int32(pos)
		}
	}
}

// unindex drops the copy of block held at way of the set starting at
// position base from the index. When that copy was the indexed one and
// duplicates exist, the set is rescanned for the block's next-lowest copy,
// which takes over the index entry.
func (t *TagStore) unindex(base, way int, block uint64) {
	if !t.indexed {
		return
	}
	held := t.index.Ptr(block)
	if *held != int32(base+way) {
		t.dups-- // a shadowed duplicate: the indexed copy stays
		return
	}
	if t.dups > 0 {
		for w, tag := range t.tags[base : base+t.ways] {
			if w != way && tag == block {
				t.dups--
				*held = int32(base + w)
				return
			}
		}
	}
	t.index.Delete(block)
}

// VictimFor returns a copy of the line that would be evicted if the block
// were inserted now, without modifying any state. Valid is false when the set
// still has a free way.
func (t *TagStore) VictimFor(block uint64) Line {
	set := t.SetIndex(block)
	if int(t.valid[set]) < t.ways {
		return Line{}
	}
	return t.lines[set*t.ways+t.repl.victimAll(set)]
}

// ForEach calls fn for every valid line. Iteration order is deterministic
// (set-major, way-minor).
func (t *TagStore) ForEach(fn func(l *Line)) {
	for pos := range t.lines {
		if t.lines[pos].Valid {
			fn(&t.lines[pos])
		}
	}
}

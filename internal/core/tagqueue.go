package core

import "fuse/internal/mem"

// TagOpKind is the command type of a tag-queue entry.
type TagOpKind uint8

const (
	// TagOpFill writes a block arriving from the L2 into the STT-MRAM bank.
	TagOpFill TagOpKind = iota
	// TagOpMigrate (the paper's "F" command) moves a block from the swap
	// buffer into the STT-MRAM bank.
	TagOpMigrate
)

// String implements fmt.Stringer.
func (k TagOpKind) String() string {
	if k == TagOpMigrate {
		return "F"
	}
	return "fill"
}

// TagOp is one pending STT-MRAM operation: the command type plus the tag and
// index of the target block (the data itself lives in the swap buffer or in
// the fill response).
type TagOp struct {
	Kind  TagOpKind
	Block uint64
	PC    uint64
	Dirty bool
	Level mem.ReadLevel
}

// TagQueue is the FIFO of pending STT-MRAM operations that makes the
// STT-MRAM bank non-blocking: the SRAM bank and the approximation logic keep
// serving requests while writes wait here (Section IV-A).
//
// The queue is a head-indexed ring over one backing slice: Pop advances the
// head instead of reslicing, so the steady state of a write-heavy run reuses
// the same backing array instead of allocating on every push/pop cycle.
type TagQueue struct {
	ops  []TagOp
	head int
	cap  int
}

// NewTagQueue creates a queue holding at most `capacity` operations (16 in
// the paper). Zero capacity disables the queue.
func NewTagQueue(capacity int) *TagQueue {
	if capacity < 0 {
		capacity = 0
	}
	return &TagQueue{cap: capacity}
}

// Capacity returns the maximum number of queued operations.
func (q *TagQueue) Capacity() int { return q.cap }

// Len returns the number of queued operations.
func (q *TagQueue) Len() int { return len(q.ops) - q.head }

// Full reports whether no more operations can be queued.
func (q *TagQueue) Full() bool { return q.Len() >= q.cap }

// Empty reports whether the queue has no pending operations.
func (q *TagQueue) Empty() bool { return q.Len() == 0 }

// Push appends an operation; it returns false when the queue is full.
func (q *TagQueue) Push(op TagOp) bool {
	if q.Full() {
		return false
	}
	q.ops = append(q.ops, op)
	return true
}

// Pop removes and returns the oldest operation.
func (q *TagQueue) Pop() (TagOp, bool) {
	if q.Empty() {
		return TagOp{}, false
	}
	op := q.ops[q.head]
	q.head++
	if q.head == len(q.ops) {
		// Empty: rewind to the start of the backing array so the dead
		// prefix never grows past one queue's worth of entries.
		q.ops = q.ops[:0]
		q.head = 0
	} else if q.head >= 2*q.cap {
		// The queue never fully drained but the dead prefix is now larger
		// than the live region can ever be: compact in place.
		n := copy(q.ops, q.ops[q.head:])
		q.ops = q.ops[:n]
		q.head = 0
	}
	return op, true
}

// Contains reports whether an operation for the block is pending.
func (q *TagQueue) Contains(block uint64) bool {
	for _, op := range q.ops[q.head:] {
		if op.Block == block {
			return true
		}
	}
	return false
}

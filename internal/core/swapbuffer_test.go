package core

import "testing"

func TestSwapBufferBasics(t *testing.T) {
	s := NewSwapBuffer(3)
	if s.Capacity() != 3 || s.Occupancy() != 0 || s.Full() {
		t.Fatalf("fresh swap buffer state wrong")
	}
	if !s.Insert(0x100, 0x4, true) || s.Occupancy() != 1 {
		t.Fatalf("insert into empty buffer failed (occupancy %d)", s.Occupancy())
	}
	if !s.Lookup(0x100) {
		t.Errorf("lookup of parked block failed")
	}
	if s.Lookup(0x200) {
		t.Errorf("lookup of absent block succeeded")
	}
	dirty, ok := s.Remove(0x100)
	if !ok || !dirty {
		t.Errorf("remove should return the dirty bit: dirty=%v ok=%v", dirty, ok)
	}
	if _, ok := s.Remove(0x100); ok {
		t.Errorf("double remove should fail")
	}
	if s.Occupancy() != 0 || s.Lookup(0x100) {
		t.Errorf("a removed block should free its register (occupancy %d)", s.Occupancy())
	}
}

func TestSwapBufferFull(t *testing.T) {
	s := NewSwapBuffer(2)
	s.Insert(0x100, 0, false)
	s.Insert(0x200, 0, false)
	if !s.Full() {
		t.Fatalf("buffer should be full")
	}
	if s.Insert(0x300, 0, false) {
		t.Errorf("insert into full buffer should fail")
	}
	if s.Occupancy() != 2 || s.Lookup(0x300) {
		t.Errorf("a rejected insert must not park its block (occupancy %d)", s.Occupancy())
	}
	s.Remove(0x100)
	if !s.Insert(0x300, 0, false) {
		t.Errorf("insert after remove should succeed")
	}
}

func TestSwapBufferDisabled(t *testing.T) {
	s := NewSwapBuffer(0)
	if s.Capacity() != 0 || !s.Full() {
		t.Errorf("zero-entry buffer should always be full")
	}
	if s.Insert(0x100, 0, false) {
		t.Errorf("insert into disabled buffer should fail")
	}
	neg := NewSwapBuffer(-3)
	if neg.Capacity() != 0 {
		t.Errorf("negative capacity should clamp to 0")
	}
}

func TestTagQueueFIFO(t *testing.T) {
	q := NewTagQueue(3)
	if q.Capacity() != 3 || !q.Empty() || q.Full() {
		t.Fatalf("fresh queue state wrong")
	}
	q.Push(TagOp{Kind: TagOpFill, Block: 1})
	q.Push(TagOp{Kind: TagOpMigrate, Block: 2})
	q.Push(TagOp{Kind: TagOpFill, Block: 3})
	if !q.Full() || q.Len() != 3 {
		t.Fatalf("queue should be full with 3 ops")
	}
	if q.Push(TagOp{Block: 4}) {
		t.Errorf("push into full queue should fail")
	}
	if q.Len() != 3 || q.Contains(4) {
		t.Errorf("a rejected push must not queue its op (len %d)", q.Len())
	}
	if !q.Contains(2) || q.Contains(9) {
		t.Errorf("Contains results wrong")
	}
	op, ok := q.Pop()
	if !ok || op.Block != 1 || op.Kind != TagOpFill {
		t.Errorf("Pop order wrong: %+v", op)
	}
	op, _ = q.Pop()
	if op.Block != 2 || op.Kind != TagOpMigrate {
		t.Errorf("Pop order wrong: %+v", op)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d after 3 pushes and 2 pops, want 1", q.Len())
	}
	if op, ok := q.Pop(); !ok || op.Block != 3 || !q.Empty() {
		t.Errorf("the last Pop should return block 3 and empty the queue: %+v", op)
	}
	if _, ok := q.Pop(); ok {
		t.Errorf("pop from empty queue should fail")
	}
}

func TestTagQueueDisabled(t *testing.T) {
	q := NewTagQueue(0)
	if !q.Full() || q.Push(TagOp{Block: 1}) {
		t.Errorf("zero-capacity queue should reject pushes")
	}
	neg := NewTagQueue(-1)
	if neg.Capacity() != 0 {
		t.Errorf("negative capacity should clamp to 0")
	}
}

func TestTagOpKindString(t *testing.T) {
	if TagOpMigrate.String() != "F" {
		t.Errorf("migrate ops are marked F in the paper")
	}
	if TagOpFill.String() != "fill" {
		t.Errorf("unexpected fill op string")
	}
}

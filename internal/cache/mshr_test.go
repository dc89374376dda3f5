package cache

import (
	"errors"
	"testing"

	"fuse/internal/mem"
)

func req(block int, kind mem.AccessKind) mem.Request {
	return mem.Request{Addr: uint64(block) * mem.BlockSize, Kind: kind}
}

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHR(2, 2)
	if m.Capacity() != 2 || m.Occupancy() != 0 || m.Full() {
		t.Fatalf("fresh MSHR state wrong")
	}
	primary, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM)
	if err != nil || !primary {
		t.Fatalf("first allocate: primary=%v err=%v", primary, err)
	}
	// Same block merges.
	primary, err = m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM)
	if err != nil || primary {
		t.Fatalf("second allocate should merge: primary=%v err=%v", primary, err)
	}
	if m.Occupancy() != 1 {
		t.Errorf("a merge must not take a primary entry: occupancy=%d", m.Occupancy())
	}
	e, ok := m.Lookup(mem.BlockAlign(uint64(mem.BlockSize)))
	if !ok || e.Primary.Addr != mem.BlockSize || len(e.Merged) != 1 || e.Merged[0].Addr != mem.BlockSize {
		t.Errorf("entry should hold primary + 1 merged request")
	}
	// Third request to the same block exceeds merge width 2 after one more.
	if _, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM); err != nil {
		t.Fatalf("second merge should fit: %v", err)
	}
	if _, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM); !errors.Is(err, ErrMSHRMergeFull) {
		t.Errorf("expected ErrMSHRMergeFull, got %v", err)
	}
	// A different block takes the second primary entry.
	if _, err := m.Allocate(req(2, mem.Write), DestSTTMRAM, mem.WriteMultiple); err != nil {
		t.Fatalf("second primary: %v", err)
	}
	if !m.Full() {
		t.Errorf("MSHR should be full with 2 entries")
	}
	if _, err := m.Allocate(req(3, mem.Read), DestSRAM, mem.WORM); !errors.Is(err, ErrMSHRFull) {
		t.Errorf("expected ErrMSHRFull, got %v", err)
	}
}

func TestMSHRRelease(t *testing.T) {
	m := NewMSHR(2, 2)
	m.Allocate(req(7, mem.Read), DestSTTMRAM, mem.WORM)
	block := req(7, mem.Read).BlockAddr()
	e, ok := m.Release(block)
	if !ok || e.Block != block || e.Dest != DestSTTMRAM || e.Level != mem.WORM {
		t.Errorf("Release returned wrong entry: %+v ok=%v", e, ok)
	}
	if m.Occupancy() != 0 {
		t.Errorf("occupancy after release = %d", m.Occupancy())
	}
	if _, ok := m.Release(block); ok {
		t.Errorf("double release should fail")
	}
	// After release, the same block can allocate a fresh primary miss.
	if primary, err := m.Allocate(req(7, mem.Write), DestSRAM, mem.WriteMultiple); err != nil || !primary {
		t.Errorf("re-allocating a released block: primary=%v err=%v", primary, err)
	}
}

func TestMSHRClampsBadArguments(t *testing.T) {
	m := NewMSHR(0, -1)
	if m.Capacity() != 1 {
		t.Errorf("capacity should clamp to 1, got %d", m.Capacity())
	}
	if _, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM); err != nil {
		t.Fatalf("allocate into clamped MSHR: %v", err)
	}
	// Merge width clamped to 0: merging is impossible.
	if _, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM); !errors.Is(err, ErrMSHRMergeFull) {
		t.Errorf("expected merge-full with zero merge width, got %v", err)
	}
}

func TestDestBankString(t *testing.T) {
	if DestSRAM.String() != "SRAM" || DestSTTMRAM.String() != "STT-MRAM" || DestBypass.String() != "bypass" {
		t.Errorf("unexpected DestBank strings")
	}
	if DestBank(9).String() != "unknown" {
		t.Errorf("unknown DestBank should render as unknown")
	}
}

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
	if m.Full() {
		t.Fatalf("a fresh MSHR should not be full")
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
	if m.entries.Len() != 1 {
		t.Errorf("a merge must not take a primary entry: %d entries", m.entries.Len())
	}
	e, ok := m.entries.Get(mem.BlockSize)
	if !ok || e.merged != 1 {
		t.Errorf("entry should count 1 merged request: %+v ok=%v", e, ok)
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
	primary := mem.Request{Addr: 7 * mem.BlockSize, PC: 0x40, Kind: mem.Write}
	m.Allocate(primary, DestSTTMRAM, mem.WORM)
	m.Allocate(req(7, mem.Read), DestSRAM, mem.WORO) // merges: keeps the primary's fields
	block := primary.BlockAddr()
	e, ok := m.Release(block)
	want := MSHREntry{PC: 0x40, Write: true, Dest: DestSTTMRAM, Level: mem.WORM, merged: 1}
	if !ok || e != want {
		t.Errorf("Release returned %+v ok=%v, want %+v", e, ok, want)
	}
	if m.entries.Len() != 0 {
		t.Errorf("%d entries after release", m.entries.Len())
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
	if _, err := m.Allocate(req(1, mem.Read), DestSRAM, mem.WORM); err != nil {
		t.Fatalf("allocate into clamped MSHR: %v", err)
	}
	// Entries clamped to 1: a second block finds the file full.
	if _, err := m.Allocate(req(2, mem.Read), DestSRAM, mem.WORM); !errors.Is(err, ErrMSHRFull) {
		t.Errorf("expected a full file with one clamped entry, got %v", err)
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

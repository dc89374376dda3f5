package mem

import (
	"testing"
	"testing/quick"
)

func TestBlockAlign(t *testing.T) {
	cases := []struct {
		in, want uint64
	}{
		{0, 0},
		{1, 0},
		{127, 0},
		{128, 128},
		{129, 128},
		{255, 128},
		{256, 256},
		{0xdeadbeef, 0xdeadbe80},
	}
	for _, c := range cases {
		if got := BlockAlign(c.in); got != c.want {
			t.Errorf("BlockAlign(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestBlockIndex(t *testing.T) {
	if got := BlockIndex(0); got != 0 {
		t.Errorf("BlockIndex(0) = %d, want 0", got)
	}
	if got := BlockIndex(128); got != 1 {
		t.Errorf("BlockIndex(128) = %d, want 1", got)
	}
	if got := BlockIndex(128*7 + 5); got != 7 {
		t.Errorf("BlockIndex(901) = %d, want 7", got)
	}
}

func TestBlockAlignProperties(t *testing.T) {
	aligned := func(addr uint64) bool {
		a := BlockAlign(addr)
		return a%BlockSize == 0 && a <= addr && addr-a < BlockSize
	}
	if err := quick.Check(aligned, nil); err != nil {
		t.Error(err)
	}
	idempotent := func(addr uint64) bool {
		return BlockAlign(BlockAlign(addr)) == BlockAlign(addr)
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Error(err)
	}
	consistent := func(addr uint64) bool {
		return BlockIndex(addr) == BlockAlign(addr)/BlockSize
	}
	if err := quick.Check(consistent, nil); err != nil {
		t.Error(err)
	}
}

func TestRequestBlockAddr(t *testing.T) {
	r := Request{Addr: 0x1234}
	if got, want := r.BlockAddr(), BlockAlign(0x1234); got != want {
		t.Errorf("BlockAddr() = %#x, want %#x", got, want)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("unexpected AccessKind strings: %q %q", Read, Write)
	}
	if s := AccessKind(9).String(); s != "AccessKind(9)" {
		t.Errorf("unexpected string for unknown kind: %q", s)
	}
}

func TestReadLevelString(t *testing.T) {
	want := map[ReadLevel]string{
		WriteMultiple: "WM",
		ReadIntensive: "read-intensive",
		WORM:          "WORM",
		WORO:          "WORO",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("ReadLevel %d String() = %q, want %q", l, l.String(), s)
		}
	}
	if s := ReadLevel(99).String(); s != "ReadLevel(99)" {
		t.Errorf("unexpected string for unknown level: %q", s)
	}
}

func TestRequestString(t *testing.T) {
	r := Request{Addr: 0x80, PC: 0x400, Kind: Write, SM: 3, Warp: 11}
	want := "write@0x80 pc=0x400 sm=3 warp=11"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

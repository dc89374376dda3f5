package memtech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTechnologyString(t *testing.T) {
	if SRAM.String() != "SRAM" || STTMRAM.String() != "STT-MRAM" || EDRAM.String() != "eDRAM" {
		t.Errorf("unexpected technology strings: %v %v %v", SRAM, STTMRAM, EDRAM)
	}
	if Technology(9).String() != "Technology(9)" {
		t.Errorf("unknown technology string: %v", Technology(9))
	}
}

func TestDefaultParamsValidate(t *testing.T) {
	sets := []Params{
		SRAMParams(32),
		SmallSRAMParams(16),
		STTMRAMParams(64),
		PureSTTMRAMParams(128),
		EDRAMParams(32),
	}
	for _, p := range sets {
		if err := p.Validate(); err != nil {
			t.Errorf("%v params invalid: %v", p.Tech, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{ReadLatency: 0, WriteLatency: 1, CellArea: 1},
		{ReadLatency: 1, WriteLatency: 1, CellArea: 0},
		{ReadLatency: 1, WriteLatency: 1, CellArea: 1, ReadEnergy: -1},
		{ReadLatency: 1, WriteLatency: 1, CellArea: 1, RefreshIntervalUS: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSTTMRAMWritePenalty(t *testing.T) {
	s := SRAMParams(32)
	m := STTMRAMParams(64)
	if m.WriteLatency != 5*s.WriteLatency {
		t.Errorf("STT-MRAM write latency %d should be 5x SRAM %d (paper Section I)", m.WriteLatency, s.WriteLatency)
	}
	if m.ReadLatency != s.ReadLatency {
		t.Errorf("STT-MRAM read latency should match SRAM: %d vs %d", m.ReadLatency, s.ReadLatency)
	}
	if m.WriteEnergy <= s.WriteEnergy {
		t.Errorf("STT-MRAM write energy should exceed SRAM write energy")
	}
}

func TestDensityRelativeToSRAM(t *testing.T) {
	m := STTMRAMParams(64)
	d := m.DensityRelativeToSRAM()
	// 140F^2 / 36F^2 ~= 3.9, i.e. "about 4X denser" per the paper.
	if d < 3.5 || d > 4.5 {
		t.Errorf("STT-MRAM density relative to SRAM = %v, want ~4", d)
	}
	if got := m.CapacityForArea(32); got < 112 || got > 144 {
		t.Errorf("CapacityForArea(32KB SRAM) = %d KB, want ~128 KB", got)
	}
	s := SRAMParams(32)
	if s.DensityRelativeToSRAM() != 1 {
		t.Errorf("SRAM density relative to itself should be 1")
	}
}

func TestLeakageScalesWithCapacity(t *testing.T) {
	p32 := SRAMParams(32)
	p16 := SRAMParams(16)
	if math.Abs(p32.LeakagePower-2*p16.LeakagePower) > 1e-9 {
		t.Errorf("SRAM leakage should scale linearly: %v vs %v", p32.LeakagePower, p16.LeakagePower)
	}
	if math.Abs(p32.LeakagePower-58) > 1e-9 {
		t.Errorf("32KB SRAM leakage = %v mW, want 58 (Table I)", p32.LeakagePower)
	}
	stt := STTMRAMParams(64)
	if math.Abs(stt.LeakagePower-2.4) > 1e-9 {
		t.Errorf("64KB STT-MRAM leakage = %v mW, want 2.4 (Table I)", stt.LeakagePower)
	}
	if stt.LeakagePower >= SRAMParams(64).LeakagePower {
		t.Errorf("STT-MRAM leakage should be far below SRAM leakage")
	}
}

func TestAccessHelpers(t *testing.T) {
	p := STTMRAMParams(64)
	if p.AccessLatency(false) != p.ReadLatency || p.AccessLatency(true) != p.WriteLatency {
		t.Errorf("AccessLatency mismatch")
	}
	if p.AccessEnergy(false) != p.ReadEnergy || p.AccessEnergy(true) != p.WriteEnergy {
		t.Errorf("AccessEnergy mismatch")
	}
}

func TestBankSerialisesAccesses(t *testing.T) {
	b := NewBank(STTMRAMParams(64))
	done1 := b.Access(0, true) // 5-cycle write
	if done1 != 5 {
		t.Errorf("first write done at %d, want 5", done1)
	}
	if !b.Busy(3) {
		t.Errorf("bank should be busy at cycle 3")
	}
	if b.Busy(5) {
		t.Errorf("bank should be free at cycle 5")
	}
	// A read issued while the write is in flight is serialised behind it.
	done2 := b.Access(2, false)
	if done2 != 6 {
		t.Errorf("read behind write done at %d, want 6", done2)
	}
	if b.BusyUntil() != 6 {
		t.Errorf("BusyUntil = %d, want 6", b.BusyUntil())
	}
}

func TestBankMonotonicCompletion(t *testing.T) {
	prop := func(gaps []uint8, writes []bool) bool {
		b := NewBank(STTMRAMParams(64))
		now := int64(0)
		prev := int64(0)
		for i, g := range gaps {
			now += int64(g % 16)
			w := i < len(writes) && writes[i]
			done := b.Access(now, w)
			if done < prev || done <= now-1 {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

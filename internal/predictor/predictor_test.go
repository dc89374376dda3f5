package predictor

import (
	"testing"

	"fuse/internal/mem"
)

// sampledWarp returns a warp number that the default configuration samples
// into sampler set 0.
const sampledWarp = 0

func rlReq(block int, pc uint64, kind mem.AccessKind, warp int) mem.Request {
	return mem.Request{Addr: uint64(block) * mem.BlockSize, PC: pc, Kind: kind, Warp: warp}
}

// anySamplerEntry reports whether some sampler entry satisfies f.
func anySamplerEntry(p *ReadLevelPredictor, f func(samplerEntry) bool) bool {
	for _, set := range p.sampler {
		for _, e := range set {
			if f(e) {
				return true
			}
		}
	}
	return false
}

func TestSignatureStable(t *testing.T) {
	if signature(0x400) != signature(0x400) {
		t.Errorf("signature must be deterministic")
	}
	if signature(0x400) == signature(0x404) {
		t.Errorf("adjacent instructions should map to different signatures")
	}
	if signature(0x400) != signature(0x400+4*historyEntries) {
		t.Errorf("PCs a history table apart should share a signature")
	}
	for pc := uint64(0); pc < 1<<16; pc += 4 {
		s := signature(pc)
		if s < 0 || s >= historyEntries {
			t.Fatalf("signature out of range: %d", s)
		}
	}
}

// TestDefaultsApplied pins the predictors' Table I parameters: a 4-set x
// 8-way sampler fed by 4 of 48 warps, a 1024-entry history table of 4-bit
// counters starting at 8, and the unused threshold 14.
func TestDefaultsApplied(t *testing.T) {
	got := [...]int{samplerSets, samplerWays, sampledWarps, warpsPerSM, historyEntries, counterMax, initialCounter, unusedThreshold}
	want := [...]int{4, 8, 4, 48, 1024, 15, 8, 14}
	if got != want {
		t.Errorf("Table I parameters (sampler sets, ways, sampled warps, warps per SM, history entries, counter max, initial counter, unused threshold) = %v, want %v", got, want)
	}
	p := NewReadLevelPredictor()
	if len(p.sampler) != 4 || len(p.sampler[0]) != 8 || len(p.history) != 1024 {
		t.Errorf("sampler %dx%d, history %d entries; want 4x8 and 1024", len(p.sampler), len(p.sampler[0]), len(p.history))
	}
	for pc := uint64(0); pc < 1024*4; pc += 4 {
		if c := p.CounterOf(pc); c != 8 {
			t.Fatalf("untrained counter of pc %#x = %d, want 8", pc, c)
		}
	}
}

func TestInitialPredictionIsNeutral(t *testing.T) {
	p := NewReadLevelPredictor()
	if got := p.Predict(0x1000); got != mem.ReadIntensive {
		t.Errorf("untrained prediction = %v, want read-intensive (neutral)", got)
	}
	if !p.Neutral(0x1000) {
		t.Errorf("untrained prediction should be neutral")
	}
	if got, want := p.CounterOf(0x1000), initialCounter; got != want {
		t.Errorf("Predict must not train the history table: counter %d, want %d", got, want)
	}
}

func TestLearnsWORMPattern(t *testing.T) {
	// Blocks filled by PC 0x800 are re-read many times by other PCs: the
	// predictor should converge to WORM for PC 0x800.
	p := NewReadLevelPredictor()
	fillPC := uint64(0x800)
	readPC := uint64(0x900)
	for i := 0; i < 64; i++ {
		block := 1000 + i
		p.Observe(rlReq(block, fillPC, mem.Write, sampledWarp))
		for r := 0; r < 4; r++ {
			p.Observe(rlReq(block, readPC, mem.Read, sampledWarp))
		}
	}
	if got := p.Predict(fillPC); got != mem.WORM {
		t.Errorf("Predict(fill PC) = %v, want WORM (counter=%d)", got, p.CounterOf(fillPC))
	}
	if p.Neutral(fillPC) {
		t.Errorf("trained WORM prediction should not be neutral")
	}
	if !anySamplerEntry(p, func(e samplerEntry) bool { return e.used }) {
		t.Errorf("sampler should have observed reuse hits")
	}
}

func TestLearnsWMPattern(t *testing.T) {
	// Blocks touched by PC 0xA00 are written over and over: predict WM.
	p := NewReadLevelPredictor()
	pc := uint64(0xA00)
	for i := 0; i < 64; i++ {
		block := 2000 + i%8 // small, write-hot working set
		p.Observe(rlReq(block, pc, mem.Write, sampledWarp))
	}
	if got := p.Predict(pc); got != mem.WriteMultiple {
		t.Errorf("Predict(WM PC) = %v, want WM (counter=%d)", got, p.CounterOf(pc))
	}
}

func TestLearnsWOROPattern(t *testing.T) {
	// Blocks touched by PC 0xC00 are streamed through exactly once: the
	// sampler keeps evicting unused entries, driving the counter up to the
	// WORO threshold.
	p := NewReadLevelPredictor()
	pc := uint64(0xC00)
	for i := 0; i < 400; i++ {
		p.Observe(rlReq(5000+i, pc, mem.Read, sampledWarp))
	}
	if got := p.Predict(pc); got != mem.WORO {
		t.Errorf("Predict(streaming PC) = %v, want WORO (counter=%d)", got, p.CounterOf(pc))
	}
	if got, want := p.CounterOf(pc), counterMax; got != want {
		t.Errorf("unused sampler evictions should saturate the streaming PC's counter: %d, want %d", got, want)
	}
}

func TestNonSampledWarpsIgnored(t *testing.T) {
	p := NewReadLevelPredictor()
	before := p.CounterOf(0xE00)
	// Warp 5 is not one of the 4 representative warps (stride 12).
	for i := 0; i < 100; i++ {
		p.Observe(rlReq(7000+i, 0xE00, mem.Read, 5))
	}
	if p.CounterOf(0xE00) != before {
		t.Errorf("non-sampled warps should not change the history table")
	}
	if anySamplerEntry(p, func(e samplerEntry) bool { return e.valid }) {
		t.Errorf("non-sampled warps should not touch the sampler")
	}
}

func TestMultipleSampledWarpsUseDifferentSets(t *testing.T) {
	// Warps 0, 12, 24, 36 are sampled under the default 48-warp config.
	for _, warp := range []int{0, 12, 24, 36} {
		if _, ok := warpSampled(warp); !ok {
			t.Errorf("warp %d should be sampled", warp)
		}
	}
	s0, _ := warpSampled(0)
	s1, _ := warpSampled(12)
	if s0 == s1 {
		t.Errorf("different representative warps should map to different sampler sets")
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		level   mem.ReadLevel
		neutral bool
		writes  uint64
		want    Outcome
	}{
		{mem.WriteMultiple, false, 3, OutcomeTrue},
		{mem.WriteMultiple, false, 1, OutcomeFalse},
		{mem.WORM, false, 1, OutcomeTrue},
		{mem.WORM, false, 2, OutcomeFalse},
		{mem.WORO, false, 0, OutcomeTrue},
		{mem.WORO, false, 5, OutcomeFalse},
		{mem.ReadIntensive, false, 1, OutcomeNeutral},
		{mem.WORM, true, 1, OutcomeNeutral},
	}
	for _, c := range cases {
		if got := Judge(c.level, c.neutral, c.writes); got != c.want {
			t.Errorf("Judge(%v, neutral=%v, writes=%d) = %v, want %v",
				c.level, c.neutral, c.writes, got, c.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeTrue.String() != "true" || OutcomeFalse.String() != "false" || OutcomeNeutral.String() != "neutral" {
		t.Errorf("unexpected outcome strings")
	}
	if Outcome(9).String() != "unknown" {
		t.Errorf("unknown outcome should render as unknown")
	}
}

func TestAccuracyTracker(t *testing.T) {
	var a AccuracyTracker
	a.Record(OutcomeTrue)
	a.Record(OutcomeTrue)
	a.Record(OutcomeFalse)
	a.Record(OutcomeNeutral)
	if a.Total() != 4 {
		t.Errorf("Total = %d, want 4", a.Total())
	}
	tf, nf, ff := a.Fractions()
	if tf != 0.5 || nf != 0.25 || ff != 0.25 {
		t.Errorf("Fractions = %v %v %v", tf, nf, ff)
	}
	var empty AccuracyTracker
	if tf, nf, ff := empty.Fractions(); tf != 0 || nf != 0 || ff != 0 {
		t.Errorf("empty tracker should report zeros")
	}
}

func TestDeadWritePredictorLearnsStreaming(t *testing.T) {
	p := NewDeadWritePredictor()
	pc := uint64(0x1200)
	// Streaming blocks: written/read once, never reused.
	for i := 0; i < 400; i++ {
		p.Observe(rlReq(9000+i, pc, mem.Write, sampledWarp))
	}
	if !p.PredictDead(pc) {
		t.Errorf("streaming PC should be predicted dead")
	}
	// A prediction trains nothing: the same PC stays dead, and an
	// untrained one stays alive.
	if !p.PredictDead(pc) || p.PredictDead(0x1300) {
		t.Errorf("predicting changed the answers: streaming PC dead %v, untrained PC dead %v", p.PredictDead(pc), p.PredictDead(0x1300))
	}
}

func TestDeadWritePredictorLearnsReuse(t *testing.T) {
	p := NewDeadWritePredictor()
	pc := uint64(0x1300)
	for i := 0; i < 64; i++ {
		block := 100 + i%8
		p.Observe(rlReq(block, pc, mem.Write, sampledWarp))
		p.Observe(rlReq(block, 0x1400, mem.Read, sampledWarp))
	}
	if p.PredictDead(pc) {
		t.Errorf("heavily reused PC should not be predicted dead")
	}
}

func TestDeadWritePredictorIgnoresNonSampledWarps(t *testing.T) {
	p := NewDeadWritePredictor()
	for i := 0; i < 100; i++ {
		p.Observe(rlReq(100+i, 0x1500, mem.Write, 7))
	}
	// The history should still be at its initial (alive) value.
	if p.PredictDead(0x1500) {
		t.Errorf("unsampled traffic should not train the predictor")
	}
}

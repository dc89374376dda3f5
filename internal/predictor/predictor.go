// Package predictor implements the PC-based predictors used by the FUSE L1D
// cache: the read-level predictor of Dy-FUSE (a memory-request sampler plus a
// prediction history table, Section IV-B of the paper) and the DASCA-style
// dead-write predictor used by the By-NVM baseline.
package predictor

import "fuse/internal/mem"

// Signature computes the partial-PC index ("Signature" in the paper) used by
// the prediction history table. The paper stores 9 bits per sampler entry but
// indexes a table of up to 1024 entries; we extract the low bits of the
// word-aligned PC.
func Signature(pc uint64, tableSize int) int {
	if tableSize <= 0 {
		return 0
	}
	return int((pc >> 2) % uint64(tableSize))
}

// partialTag computes the 15-bit partial block-address tag stored in a
// sampler entry.
func partialTag(block uint64) uint16 {
	return uint16((block >> mem.BlockShift) & 0x7fff)
}

// samplerEntry is one way of the memory-request sampler. Field names follow
// Figure 11 of the paper: V (valid), U (used), RP (replacement position, i.e.
// LRU rank), Tag (15-bit partial address) and Signature (partial PC).
type samplerEntry struct {
	valid     bool
	used      bool
	rp        uint8
	tag       uint16
	signature int
	lastWrite bool
}

// historyEntry is one entry of the prediction history table: an R/W status
// and a 4-bit saturating reuse counter. The R/W status is implemented as a
// tiny saturating bias (0..writeBiasMax) rather than a raw 1-bit latch so
// that a single aliased write hit (the 15-bit partial tags of the sampler do
// collide occasionally) cannot permanently flip a read-dominated signature to
// 'W': reads pull the bias back down.
type historyEntry struct {
	writeBias int
	counter   int
}

// writeBiasMax is the saturation value of the R/W bias; the entry reads as
// 'W' when the bias is in the upper half.
const writeBiasMax = 3

func (h *historyEntry) writeStatus() bool { return h.writeBias >= (writeBiasMax+1)/2 }

// Config parameterises the read-level predictor. Zero values are replaced by
// the paper's defaults (Table I).
type Config struct {
	// SamplerSets and SamplerWays describe the sampler geometry (4 x 8).
	SamplerSets int
	SamplerWays int
	// HistoryEntries is the size of the prediction history table.
	HistoryEntries int
	// UnusedThreshold is the counter value above which a signature is
	// classified as WORO (14 in the paper).
	UnusedThreshold int
	// InitialCounter is the counter value a fresh history entry starts at
	// (8 in the paper).
	InitialCounter int
	// CounterMax is the saturation value of the 4-bit counter.
	CounterMax int
	// WarpsPerSM and SampledWarps control which warps feed the sampler:
	// SampledWarps representative warps out of WarpsPerSM.
	WarpsPerSM   int
	SampledWarps int
}

func (c Config) withDefaults() Config {
	if c.SamplerSets == 0 {
		c.SamplerSets = 4
	}
	if c.SamplerWays == 0 {
		c.SamplerWays = 8
	}
	if c.HistoryEntries == 0 {
		c.HistoryEntries = 1024
	}
	if c.UnusedThreshold == 0 {
		c.UnusedThreshold = 14
	}
	if c.InitialCounter == 0 {
		c.InitialCounter = 8
	}
	if c.CounterMax == 0 {
		c.CounterMax = 15
	}
	if c.WarpsPerSM == 0 {
		c.WarpsPerSM = 48
	}
	if c.SampledWarps == 0 {
		c.SampledWarps = 4
	}
	return c
}

// ReadLevelPredictor speculates the read level (WM / read-intensive / WORM /
// WORO) of the cache block an incoming memory reference will allocate, based
// on the history of the instruction (PC) issuing it.
type ReadLevelPredictor struct {
	cfg     Config
	sampler [][]samplerEntry
	history []historyEntry
}

// NewReadLevelPredictor builds a predictor with the given configuration
// (zero-value fields take the paper's defaults).
func NewReadLevelPredictor(cfg Config) *ReadLevelPredictor {
	cfg = cfg.withDefaults()
	p := &ReadLevelPredictor{cfg: cfg}
	p.sampler = make([][]samplerEntry, cfg.SamplerSets)
	for i := range p.sampler {
		p.sampler[i] = make([]samplerEntry, cfg.SamplerWays)
	}
	p.history = make([]historyEntry, cfg.HistoryEntries)
	for i := range p.history {
		p.history[i] = historyEntry{counter: cfg.InitialCounter}
	}
	return p
}

// Config returns the effective configuration.
func (p *ReadLevelPredictor) Config() Config { return p.cfg }

// warpSampled reports whether the given warp is one of the representative
// warps observed by the sampler, and which sampler set it maps to.
func (p *ReadLevelPredictor) warpSampled(warp int) (int, bool) {
	if p.cfg.SampledWarps <= 0 {
		return 0, false
	}
	stride := p.cfg.WarpsPerSM / p.cfg.SampledWarps
	if stride <= 0 {
		stride = 1
	}
	if warp%stride != 0 {
		return 0, false
	}
	set := (warp / stride) % p.cfg.SamplerSets
	return set, true
}

// Predict returns the read level the predictor currently associates with the
// instruction at pc. The paper's decision rule (Section IV-B):
//
//	counter >= unusedThreshold           -> WORO
//	counter <= 1 and status == 'R'       -> WORM
//	counter <= 1 and status == 'W'       -> WM
//	otherwise                            -> neutral, treated as read-intensive
func (p *ReadLevelPredictor) Predict(pc uint64) mem.ReadLevel {
	h := p.history[Signature(pc, len(p.history))]
	switch {
	case h.counter >= p.cfg.UnusedThreshold:
		return mem.WORO
	case h.counter <= 1 && h.writeStatus():
		return mem.WriteMultiple
	case h.counter <= 1:
		return mem.WORM
	default:
		return mem.ReadIntensive
	}
}

// Neutral reports whether the prediction for pc is the neutral
// (read-intensive) middle band rather than a confident WM/WORM/WORO call.
// Figure 16 reports this band separately.
func (p *ReadLevelPredictor) Neutral(pc uint64) bool {
	h := p.history[Signature(pc, len(p.history))]
	return h.counter > 1 && h.counter < p.cfg.UnusedThreshold
}

// Observe feeds one memory request into the sampler and updates the history
// table. Only requests from the representative warps are sampled; all other
// requests are ignored (this is what keeps the structure small).
func (p *ReadLevelPredictor) Observe(req mem.Request) {
	set, ok := p.warpSampled(req.Warp)
	if !ok {
		return
	}
	ways := p.sampler[set]
	tag := partialTag(req.BlockAddr())
	sig := Signature(req.PC, len(p.history))

	// Hit: the block is being re-referenced. Reward the signature that
	// brought it in (decrement counter) and bias the R/W status toward the
	// kind of reuse observed.
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			h := &p.history[e.signature]
			if h.counter > 0 {
				h.counter--
			}
			if req.Kind == mem.Write {
				if h.writeBias < writeBiasMax {
					h.writeBias += 2
					if h.writeBias > writeBiasMax {
						h.writeBias = writeBiasMax
					}
				}
			} else if h.writeBias > 0 {
				h.writeBias--
			}
			e.used = true
			e.lastWrite = req.Kind == mem.Write
			p.touchLRU(set, w)
			return
		}
	}

	// Miss: allocate a sampler entry, evicting the LRU way. If the victim
	// was never re-used (U == 0), punish its signature (increment counter).
	victim := p.lruVictim(set)
	e := &ways[victim]
	if e.valid && !e.used {
		h := &p.history[e.signature]
		if h.counter < p.cfg.CounterMax {
			h.counter++
		}
	}
	*e = samplerEntry{
		valid:     true,
		used:      false,
		tag:       tag,
		signature: sig,
		lastWrite: req.Kind == mem.Write,
	}
	p.touchLRU(set, victim)
}

// touchLRU moves way w of the set to the most-recently-used position by
// updating the 3-bit RP ranks.
func (p *ReadLevelPredictor) touchLRU(set, way int) {
	ways := p.sampler[set]
	old := ways[way].rp
	for i := range ways {
		if ways[i].rp > old {
			ways[i].rp--
		}
	}
	ways[way].rp = uint8(len(ways) - 1)
}

// lruVictim returns the way with the lowest RP rank, preferring invalid ways.
func (p *ReadLevelPredictor) lruVictim(set int) int {
	ways := p.sampler[set]
	best := 0
	for i := range ways {
		if !ways[i].valid {
			return i
		}
		if ways[i].rp < ways[best].rp {
			best = i
		}
	}
	return best
}

// CounterOf exposes the history counter for a PC (used by tests and by the
// area/debug reports).
func (p *ReadLevelPredictor) CounterOf(pc uint64) int {
	return p.history[Signature(pc, len(p.history))].counter
}

// Outcome classifies a finished prediction for the Figure 16 accuracy
// accounting.
type Outcome uint8

const (
	// OutcomeTrue: the prediction matched the block's actual behaviour.
	OutcomeTrue Outcome = iota
	// OutcomeFalse: the prediction contradicted the block's behaviour.
	OutcomeFalse
	// OutcomeNeutral: the predictor declined to make a confident call.
	OutcomeNeutral
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeTrue:
		return "true"
	case OutcomeFalse:
		return "false"
	case OutcomeNeutral:
		return "neutral"
	default:
		return "unknown"
	}
}

// Judge compares a prediction with the observed lifetime of a cache line
// (writes seen while resident) using the paper's criteria: a WM prediction is
// true if the block saw multiple writes before eviction; a WORM/WORO
// prediction is true if it saw at most a single write. Neutral predictions
// are counted separately.
func Judge(predicted mem.ReadLevel, neutral bool, writes uint64) Outcome {
	if neutral {
		return OutcomeNeutral
	}
	switch predicted {
	case mem.WriteMultiple:
		if writes > 1 {
			return OutcomeTrue
		}
		return OutcomeFalse
	case mem.WORM, mem.WORO:
		if writes <= 1 {
			return OutcomeTrue
		}
		return OutcomeFalse
	default:
		return OutcomeNeutral
	}
}

// AccuracyTracker accumulates Judge outcomes for Figure 16.
type AccuracyTracker struct {
	True    uint64
	False   uint64
	Neutral uint64
}

// Record adds one outcome.
func (a *AccuracyTracker) Record(o Outcome) {
	switch o {
	case OutcomeTrue:
		a.True++
	case OutcomeFalse:
		a.False++
	default:
		a.Neutral++
	}
}

// Total returns the number of outcomes recorded.
func (a *AccuracyTracker) Total() uint64 {
	return a.True + a.False + a.Neutral
}

// Fractions returns the (true, neutral, false) fractions; zeros if empty.
func (a *AccuracyTracker) Fractions() (trueFrac, neutralFrac, falseFrac float64) {
	total := a.Total()
	if total == 0 {
		return 0, 0, 0
	}
	return float64(a.True) / float64(total),
		float64(a.Neutral) / float64(total),
		float64(a.False) / float64(total)
}

// Package predictor implements the PC-based predictors used by the FUSE L1D
// cache: the read-level predictor of Dy-FUSE (a memory-request sampler plus a
// prediction history table, Section IV-B of the paper) and the DASCA-style
// dead-write predictor used by the By-NVM baseline.
package predictor

import "fuse/internal/mem"

// signature computes the partial-PC index ("Signature" in the paper) used by
// the prediction history table. The paper stores 9 bits per sampler entry but
// indexes a table of up to 1024 entries; we extract the low bits of the
// word-aligned PC.
func signature(pc uint64) int { return int((pc >> 2) % historyEntries) }

// Table I parameters shared by both predictors: a sampler of 4 sets x 8
// ways fed by 4 representative warps out of an SM's 48, and a history table
// of 1024 signatures with 4-bit counters.
const (
	samplerSets    = 4
	samplerWays    = 8
	warpsPerSM     = 48
	sampledWarps   = 4
	historyEntries = 1024
	counterMax     = 15
	// unusedThreshold is the counter value from which the read-level
	// predictor classifies a signature as WORO.
	unusedThreshold = 14
	// initialCounter is the counter a fresh read-level history entry
	// starts at.
	initialCounter = 8
)

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
}

// sampler is the memory-request sampler both predictors train from: it
// tracks the blocks the representative warps touch, and reports which
// signature a block's re-reference rewards and which an unused eviction
// punishes.
type sampler [samplerSets][samplerWays]samplerEntry

// warpSampled reports whether the given warp is one of the representative
// warps observed by the sampler, and which sampler set it maps to.
func warpSampled(warp int) (int, bool) {
	const stride = warpsPerSM / sampledWarps
	if warp%stride != 0 {
		return 0, false
	}
	return (warp / stride) % samplerSets, true
}

// observe feeds one memory request into the sampler. A request from a warp
// that is not sampled changes nothing and returns (-1, -1). Otherwise reused
// is the signature of the entry the request re-references (-1 on a sampler
// miss), and dead the signature of an entry the miss evicted without it ever
// being re-used (-1 if none).
func (s *sampler) observe(req mem.Request) (reused, dead int) {
	set, ok := warpSampled(req.Warp)
	if !ok {
		return -1, -1
	}
	ways := &s[set]
	tag := partialTag(req.BlockAddr())
	for w := range ways {
		if e := &ways[w]; e.valid && e.tag == tag {
			e.used = true
			touchLRU(ways, w)
			return e.signature, -1
		}
	}
	// Miss: allocate a sampler entry, evicting the LRU way.
	victim := lruVictim(ways)
	e := &ways[victim]
	dead = -1
	if e.valid && !e.used {
		dead = e.signature
	}
	*e = samplerEntry{valid: true, tag: tag, signature: signature(req.PC)}
	touchLRU(ways, victim)
	return -1, dead
}

// touchLRU moves way w of the set to the most-recently-used position by
// updating the 3-bit RP ranks.
func touchLRU(ways *[samplerWays]samplerEntry, way int) {
	old := ways[way].rp
	for i := range ways {
		if ways[i].rp > old {
			ways[i].rp--
		}
	}
	ways[way].rp = samplerWays - 1
}

// lruVictim returns the way with the lowest RP rank, preferring invalid ways.
func lruVictim(ways *[samplerWays]samplerEntry) int {
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

// ReadLevelPredictor speculates the read level (WM / read-intensive / WORM /
// WORO) of the cache block an incoming memory reference will allocate, based
// on the history of the instruction (PC) issuing it.
type ReadLevelPredictor struct {
	sampler sampler
	history [historyEntries]historyEntry
}

// NewReadLevelPredictor builds a predictor with the paper's Table I
// parameters and an untrained history.
func NewReadLevelPredictor() *ReadLevelPredictor {
	p := &ReadLevelPredictor{}
	for i := range p.history {
		p.history[i].counter = initialCounter
	}
	return p
}

// Predict returns the read level the predictor currently associates with the
// instruction at pc. The paper's decision rule (Section IV-B):
//
//	counter >= unusedThreshold           -> WORO
//	counter <= 1 and status == 'R'       -> WORM
//	counter <= 1 and status == 'W'       -> WM
//	otherwise                            -> neutral, treated as read-intensive
func (p *ReadLevelPredictor) Predict(pc uint64) mem.ReadLevel {
	h := p.history[signature(pc)]
	switch {
	case h.counter >= unusedThreshold:
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
	h := p.history[signature(pc)]
	return h.counter > 1 && h.counter < unusedThreshold
}

// Observe feeds one memory request into the sampler and updates the history
// table. Only requests from the representative warps are sampled; all other
// requests are ignored (this is what keeps the structure small).
func (p *ReadLevelPredictor) Observe(req mem.Request) {
	reused, dead := p.sampler.observe(req)
	if reused >= 0 {
		// The block is being re-referenced. Reward the signature that
		// brought it in (decrement counter) and bias the R/W status toward
		// the kind of reuse observed.
		h := &p.history[reused]
		if h.counter > 0 {
			h.counter--
		}
		if req.Kind == mem.Write {
			h.writeBias = min(h.writeBias+2, writeBiasMax)
		} else if h.writeBias > 0 {
			h.writeBias--
		}
	}
	if dead >= 0 {
		// The evicted entry was never re-used: punish its signature.
		if h := &p.history[dead]; h.counter < counterMax {
			h.counter++
		}
	}
}

// CounterOf exposes the history counter for a PC (used by tests and by the
// area/debug reports).
func (p *ReadLevelPredictor) CounterOf(pc uint64) int {
	return p.history[signature(pc)].counter
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

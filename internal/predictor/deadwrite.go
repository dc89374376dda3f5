package predictor

import "fuse/internal/mem"

// DeadWritePredictor is a DASCA-style dead-write predictor used by the By-NVM
// baseline: it predicts whether a block about to be written into the
// STT-MRAM cache is a "deadwrite" (written once but never re-referenced
// before eviction) and should therefore bypass the cache entirely, saving the
// expensive STT-MRAM write.
//
// The implementation mirrors the read-level predictor's sampler/history
// structure but collapses the decision to a single dead/alive bit per PC
// signature, which is all DASCA needs.
type DeadWritePredictor struct {
	cfg     Config
	sampler [][]samplerEntry
	history []int // saturating counters; high = dead

	threshold int
	max       int
}

// NewDeadWritePredictor builds a dead-write predictor. The zero Config takes
// the same defaults as the read-level predictor.
func NewDeadWritePredictor(cfg Config) *DeadWritePredictor {
	cfg = cfg.withDefaults()
	p := &DeadWritePredictor{
		cfg:       cfg,
		history:   make([]int, cfg.HistoryEntries),
		threshold: (cfg.CounterMax + 1) / 2,
		max:       cfg.CounterMax,
	}
	p.sampler = make([][]samplerEntry, cfg.SamplerSets)
	for i := range p.sampler {
		p.sampler[i] = make([]samplerEntry, cfg.SamplerWays)
	}
	for i := range p.history {
		p.history[i] = p.threshold / 2 // start mildly "alive"
	}
	return p
}

// PredictDead reports whether the block about to be allocated by the
// instruction at pc is predicted to be a dead write (never re-referenced).
func (p *DeadWritePredictor) PredictDead(pc uint64) bool {
	return p.history[Signature(pc, len(p.history))] >= p.threshold
}

// Observe feeds one memory request into the sampler: re-references decrement
// the filling signature's dead counter; unused evictions increment it.
func (p *DeadWritePredictor) Observe(req mem.Request) {
	set, ok := p.warpSampled(req.Warp)
	if !ok {
		return
	}
	ways := p.sampler[set]
	tag := partialTag(req.BlockAddr())
	sig := Signature(req.PC, len(p.history))
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			h := &p.history[e.signature]
			if *h > 0 {
				*h--
			}
			e.used = true
			p.touchLRU(set, w)
			return
		}
	}
	victim := p.lruVictim(set)
	e := &ways[victim]
	if e.valid && !e.used {
		h := &p.history[e.signature]
		if *h < p.max {
			*h++
		}
	}
	*e = samplerEntry{valid: true, tag: tag, signature: sig, lastWrite: req.Kind == mem.Write}
	p.touchLRU(set, victim)
}

func (p *DeadWritePredictor) warpSampled(warp int) (int, bool) {
	stride := p.cfg.WarpsPerSM / p.cfg.SampledWarps
	if stride <= 0 {
		stride = 1
	}
	if warp%stride != 0 {
		return 0, false
	}
	return (warp / stride) % p.cfg.SamplerSets, true
}

func (p *DeadWritePredictor) touchLRU(set, way int) {
	ways := p.sampler[set]
	old := ways[way].rp
	for i := range ways {
		if ways[i].rp > old {
			ways[i].rp--
		}
	}
	ways[way].rp = uint8(len(ways) - 1)
}

func (p *DeadWritePredictor) lruVictim(set int) int {
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

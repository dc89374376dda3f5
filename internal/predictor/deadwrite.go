package predictor

import "fuse/internal/mem"

// deadThreshold is the counter value from which the dead-write predictor
// calls a signature dead; a fresh entry starts at half of it, mildly alive.
const deadThreshold = (counterMax + 1) / 2

// DeadWritePredictor is a DASCA-style dead-write predictor used by the By-NVM
// baseline: it predicts whether a block about to be written into the
// STT-MRAM cache is a "deadwrite" (written once but never re-referenced
// before eviction) and should therefore bypass the cache entirely, saving the
// expensive STT-MRAM write.
//
// It trains the read-level predictor's sampler but collapses the decision to
// a single dead/alive counter per PC signature, which is all DASCA needs.
type DeadWritePredictor struct {
	sampler sampler
	history [historyEntries]int // saturating counters; high = dead
}

// NewDeadWritePredictor builds a dead-write predictor with the paper's
// Table I sampler and history geometry.
func NewDeadWritePredictor() *DeadWritePredictor {
	p := &DeadWritePredictor{}
	for i := range p.history {
		p.history[i] = deadThreshold / 2
	}
	return p
}

// PredictDead reports whether the block about to be allocated by the
// instruction at pc is predicted to be a dead write (never re-referenced).
func (p *DeadWritePredictor) PredictDead(pc uint64) bool {
	return p.history[signature(pc)] >= deadThreshold
}

// Observe feeds one memory request into the sampler: re-references decrement
// the filling signature's dead counter; unused evictions increment it.
func (p *DeadWritePredictor) Observe(req mem.Request) {
	reused, dead := p.sampler.observe(req)
	if reused >= 0 && p.history[reused] > 0 {
		p.history[reused]--
	}
	if dead >= 0 && p.history[dead] < counterMax {
		p.history[dead]++
	}
}

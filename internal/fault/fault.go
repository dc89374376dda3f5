// Package fault is the deterministic fault-injection harness behind the
// chaos suites: a seeded Plan of per-operation store-failure probabilities,
// a store.Cache wrapper that drops, fails and corrupts cache traffic, and an
// executor wrapper that kills the hosting worker at a chosen execution. No
// non-test code imports it; it exists only for the chaos tests.
//
// Every injection decision is a pure function of (seed, operation, identity,
// per-identity sequence number) — a counter-based PRNG, not a shared stream —
// so a chaos run is reproducible regardless of goroutine interleaving: the
// Nth Get of a given key fails (or not) identically on every run with the
// same Plan. That is what lets the chaos suite assert byte-identical figure
// tables under fault load.
package fault

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"fuse/internal/sim"
	"fuse/internal/store"
)

// Plan is a seeded fault-injection plan. The zero value injects nothing;
// probabilities are in [0, 1].
type Plan struct {
	// Seed drives every injection decision. Two runs with the same Plan
	// make identical decisions.
	Seed uint64

	// GetFailProb is the probability that a cache Get is failed (reported
	// as a miss, the only failure mode Cache.Get has).
	GetFailProb float64
	// PutDropProb is the probability that a cache Put is silently dropped.
	PutDropProb float64
	// PutCorruptProb is the probability that a cache Put is written to the
	// disk tier alone and then has bytes inside its record overwritten —
	// detectably corrupt (its CRC no longer matches), never wrong-but-valid,
	// so the store's quarantine path is exercised instead of poisoning
	// results. Requires a Disk to corrupt; ignored otherwise.
	PutCorruptProb float64

	// KillAfter, when positive, fires the injector's kill hook (SetKill)
	// on the KillAfter-th execution the injector sees — once — instead of
	// running the job. The hook typically cancels the hosting worker's
	// context, so cluster chaos tests can take a worker down at a
	// deterministic point mid-batch and prove the re-dispatch path renders
	// identical bytes. Ignored when no hook is set.
	KillAfter int
}

// decide is the deterministic coin flip: true with probability prob for this
// (op, identity, seq) triple under the plan's seed.
func (p Plan) decide(op, identity string, seq uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(identity))
	x := p.Seed ^ h.Sum64()
	x += (seq + 1) * 0x9e3779b97f4a7c15
	// splitmix64 finaliser: uniform bits from the structured input.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < prob
}

// seqCounter hands out per-identity sequence numbers under a lock of its
// own, so injection decisions depend only on how many times an identity was
// seen — never on goroutine interleaving across identities.
type seqCounter struct {
	mu sync.Mutex
	n  map[string]uint64
}

// next returns the identity's next 0-based sequence number.
func (s *seqCounter) next(identity string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == nil {
		s.n = make(map[string]uint64)
	}
	seq := s.n[identity]
	s.n[identity] = seq + 1
	return seq
}

// CacheStats counts the faults a Cache injected. The counters are chaos-run
// observability — the chaos suite asserts on them through Stats() — not
// simulation statistics, so they never flow into sim.Result.
type CacheStats struct {
	GetsFailed    int64 `json:"getsFailed"`
	PutsDropped   int64 `json:"putsDropped"`
	PutsCorrupt   int64 `json:"putsCorrupted"`
	GetsForwarded int64 `json:"getsForwarded"`
	PutsForwarded int64 `json:"putsForwarded"`
}

// Cache wraps a store.Cache with plan-driven faults: failed Gets read as
// misses, failed Puts are dropped, and corrupting Puts leave a damaged record
// in the disk tier (when one is attached) so the quarantine path runs.
type Cache struct {
	plan  Plan
	inner store.Cache
	disk  *store.Disk // corruption target; nil disables PutCorruptProb

	getSeq seqCounter
	putSeq seqCounter

	mu    sync.Mutex
	stats CacheStats
}

// WrapCache wraps inner with the plan's store faults. disk, when non-nil, is
// the tier whose records corrupting Puts damage (pass the same *Disk that
// backs inner).
func WrapCache(plan Plan, inner store.Cache, disk *store.Disk) *Cache {
	return &Cache{plan: plan, inner: inner, disk: disk}
}

// bump applies a mutation to the stats under the lock.
func (c *Cache) bump(f func(*CacheStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.stats)
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get implements store.Cache: an injected failure is a miss.
func (c *Cache) Get(key string) (sim.Result, bool) {
	if c.plan.decide("get", key, c.getSeq.next(key), c.plan.GetFailProb) {
		c.bump(func(s *CacheStats) { s.GetsFailed++ })
		return sim.Result{}, false
	}
	c.bump(func(s *CacheStats) { s.GetsForwarded++ })
	return c.inner.Get(key)
}

// Put implements store.Cache: an injected drop discards the write, an
// injected corruption writes the disk record and then damages it.
func (c *Cache) Put(key string, res sim.Result) {
	seq := c.putSeq.next(key)
	if c.plan.decide("put-drop", key, seq, c.plan.PutDropProb) {
		c.bump(func(s *CacheStats) { s.PutsDropped++ })
		return
	}
	if c.disk != nil && c.plan.decide("put-corrupt", key, seq, c.plan.PutCorruptProb) {
		if c.corrupt(key, res) == nil {
			c.bump(func(s *CacheStats) { s.PutsCorrupt++ })
			return
		}
	}
	c.bump(func(s *CacheStats) { s.PutsForwarded++ })
	c.inner.Put(key, res)
}

// corrupt appends key's record to the disk tier, then overwrites the tail of
// its envelope: the record exists — so the disk tier indexes and reads it —
// but fails its CRC, so the read path must quarantine and miss rather than
// return a wrong result.
func (c *Cache) corrupt(key string, res sim.Result) error {
	if err := c.disk.Write(key, res); err != nil {
		return err
	}
	rec, ok := c.disk.Locate(key)
	if !ok {
		return fmt.Errorf("fault: record of %s not indexed after its write", key)
	}
	f, err := os.OpenFile(rec.Path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := []byte(`{"schema":2,"result":`)
	_, err = f.WriteAt(garbage, rec.Offset+int64(rec.Len-len(garbage)))
	return err
}

// ExecFunc matches the engine's executor signature without importing the
// engine (the wrapper stays usable for any (ctx, job) executor).
type ExecFunc[J any] func(context.Context, J) (sim.Result, error)

// InjectorStats counts the faults an Injector injected. Chaos-run
// observability (read through Stats()), never simulation statistics.
type InjectorStats struct {
	Kills int64 `json:"kills"`
}

// Injector wraps a job executor with the plan's one execution fault: a
// worker kill at the KillAfter-th execution.
type Injector[J any] struct {
	plan  Plan
	inner ExecFunc[J]

	mu     sync.Mutex
	killed bool
	seen   int // executions observed, for the KillAfter trigger
	kill   func()
	stats  InjectorStats
}

// NewInjector wraps inner with the plan's execution faults.
func NewInjector[J any](plan Plan, inner ExecFunc[J]) *Injector[J] {
	return &Injector[J]{plan: plan, inner: inner}
}

// SetKill installs the kill hook Plan.KillAfter fires (e.g. the cancel
// function of the hosting worker's context). Set it before executions start.
func (in *Injector[J]) SetKill(hook func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.kill = hook
}

// takeKill consumes the one-shot kill trigger: it returns the hook exactly
// once, on the KillAfter-th execution the injector sees.
func (in *Injector[J]) takeKill() func() {
	if in.plan.KillAfter <= 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen++
	if in.killed || in.kill == nil || in.seen != in.plan.KillAfter {
		return nil
	}
	in.killed = true
	in.stats.Kills++
	return in.kill
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector[J]) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Exec is the fault-injecting executor: pass it as the engine's Exec hook.
func (in *Injector[J]) Exec(ctx context.Context, job J) (sim.Result, error) {
	if hook := in.takeKill(); hook != nil {
		// The worker is "dying": fire the hook (which cancels our context)
		// and go down with it instead of producing a result. The worker
		// stops without reporting, and the coordinator re-dispatches the
		// job to another worker.
		hook()
		<-ctx.Done() // the hook just cancelled us
		return sim.Result{}, ctx.Err()
	}
	return in.inner(ctx, job)
}

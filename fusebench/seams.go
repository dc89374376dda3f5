package main

import (
	"context"

	"fuse/internal/engine"
	"fuse/internal/sim"
	"fuse/internal/store"
)

// timedCache records a span around every call through the store.Cache seam
// and otherwise passes the call through untouched. Wrapping each tier before
// composing store.NewTiered times the tiers one by one; wrapping the Tiered
// itself times what the engine sees.
type timedCache struct {
	inner store.Cache
	tier  string // span names are "store.get.<tier>" and "store.put.<tier>"
	tr    *tracer
}

func (c timedCache) Get(key string) (sim.Result, bool) {
	id := c.tr.start("store.get."+c.tier, c.tr.parent(), key)
	res, ok := c.inner.Get(key)
	c.tr.end(id, ok, 0)
	return res, ok
}

func (c timedCache) Put(key string, res sim.Result) {
	id := c.tr.start("store.put."+c.tier, c.tr.parent(), key)
	c.inner.Put(key, res)
	c.tr.end(id, true, 0)
}

// timedExec records an "engine.exec" span around every execution through the
// engine.Config.Exec seam. The span's Attr is the job's store key, which ties
// the execution to the store miss that preceded it (queue wait), and its
// Count is the simulated L1D accesses (host time per access).
func timedExec(tr *tracer, exec engine.ExecFunc) engine.ExecFunc {
	return func(ctx context.Context, job engine.Job) (sim.Result, error) {
		key, _ := engine.StoreKey(job)
		id := tr.start("engine.exec", tr.parent(), key+" "+job.String())
		res, err := exec(ctx, job)
		tr.end(id, err == nil, res.L1D.Accesses)
		return res, err
	}
}

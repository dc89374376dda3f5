package main

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/sim"
)

// mapCache is a stub store.Cache.
type mapCache map[string]sim.Result

func (m mapCache) Get(key string) (sim.Result, bool) { r, ok := m[key]; return r, ok }
func (m mapCache) Put(key string, res sim.Result)    { m[key] = res }

func sampleResult() sim.Result {
	r := sim.Result{GPUName: "g", L1DKind: config.DyFUSE, Workload: "ATAX", Cycles: 1234, Instructions: 99, IPC: 0.5}
	r.L1D.Accesses = 77
	return r
}

func TestTimedCachePassesThrough(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer()} {
		inner := mapCache{}
		c := timedCache{inner, "disk", tr}
		if _, ok := c.Get("k"); ok {
			t.Fatal("empty cache hit")
		}
		want := sampleResult()
		c.Put("k", want)
		if !reflect.DeepEqual(inner["k"], want) {
			t.Fatalf("Put stored %+v, want %+v", inner["k"], want)
		}
		got, ok := c.Get("k")
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, want)
		}
		if tr == nil {
			continue
		}
		spans := tr.snapshot()
		names := []string{"store.get.disk", "store.put.disk", "store.get.disk"}
		oks := []bool{false, true, true}
		if len(spans) != len(names) {
			t.Fatalf("%d spans, want %d", len(spans), len(names))
		}
		for i, s := range spans {
			if s.Name != names[i] || s.OK != oks[i] || s.Attr != "k" || s.End < s.Start {
				t.Errorf("span %d = %+v", i, s)
			}
		}
	}
}

func TestTimedExecPassesThrough(t *testing.T) {
	want := sampleResult()
	boom := errors.New("boom")
	var seen engine.Job
	exec := func(_ context.Context, job engine.Job) (sim.Result, error) {
		seen = job
		if job.Workload == "fail" {
			return want, boom
		}
		return want, nil
	}
	tr := newTracer()
	timed := timedExec(tr, exec)
	job := engine.Job{Kind: config.DyFUSE, Workload: "ATAX", Opts: sim.Options{InstructionsPerWarp: 10}}
	got, err := timed(context.Background(), job)
	if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(seen, job) {
		t.Fatalf("timedExec = %+v, %v (job %+v); want the wrapped result unchanged", got, err, seen)
	}
	got, err = timed(context.Background(), engine.Job{Kind: config.DyFUSE, Workload: "fail"})
	if !errors.Is(err, boom) || !reflect.DeepEqual(got, want) {
		t.Fatalf("timedExec error path = %+v, %v", got, err)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || !spans[0].OK || spans[1].OK || spans[0].Count != 77 {
		t.Fatalf("spans = %+v", spans)
	}
	key, _ := engine.StoreKey(job)
	if spans[0].Attr != key+" Dy-FUSE/ATAX" {
		t.Errorf("span attr = %q, want the store key and job name", spans[0].Attr)
	}
}

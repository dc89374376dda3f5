package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Start and End are offsets
// from the tracer's epoch. Attr identifies the work (a store key, a
// kind/workload pair, a request class); OK records the call's outcome (a
// cache hit, a successful execution or request); Count is a work count the
// caller attaches (simulated L1D accesses, response bytes).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	OK     bool          `json:"ok"`
	Count  uint64        `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	// current is the span new children attach to when the caller cannot
	// pass a parent through (the store.Cache and engine.ExecFunc seams carry
	// no context of their own): the enclosing pass or batch.
	current atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, attr string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Attr: attr, Start: now})
	return id
}

// end closes span id with its outcome and work count.
func (t *tracer) end(id int, ok bool, count uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.OK, s.Count = now, ok, count
}

// parent returns the span children of the seams attach to.
func (t *tracer) parent() int {
	if t == nil {
		return 0
	}
	return int(t.current.Load())
}

// enter makes id the parent of the spans the seams record from now on.
func (t *tracer) enter(id int) {
	if t != nil {
		t.current.Store(int64(id))
	}
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// named returns the spans called name whose parent is a span in within (or
// any span, when within is nil), in start order.
func named(spans []span, name string, within map[int]bool) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (within == nil || within[s.Parent]) {
			out = append(out, s)
		}
	}
	return out
}

// subtree returns the IDs of root and every span below it.
func subtree(spans []span, root int) map[int]bool {
	in := map[int]bool{root: true}
	// Spans are appended in start order and a child starts after its parent,
	// so one forward sweep sees every parent before its children.
	for _, s := range spans {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover (the
// union of the children's intervals, clipped to the parent, so children that
// ran in parallel are not subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within the
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		default:
			curB = max(curB, v.b)
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines to path, followed by a per-name
// self-time summary line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds()
	}
	if err := enc.Encode(map[string]any{"self_s": self}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

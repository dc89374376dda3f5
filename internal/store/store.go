// Package store persists simulation results in a content-addressed on-disk
// store so that an identical (GPU configuration, workload profile, simulation
// options) point is computed once, ever — across processes, figures, CLI runs
// and the fuseserve front door.
//
// Key scheme: the SHA-256 hex digest of the canonical JSON encoding of the
// key material — a schema version plus config.GPUConfig, the workload's own
// canonical key material (trace.Workload.KeyMaterial; exactly the Profile
// encoding for synthetic workloads) and sim.Options (defaults applied).
// Canonical means object keys are sorted and numbers are preserved verbatim,
// so the key does not depend on the order in which fields were encoded.
//
// Disk layout: one versioned JSON envelope per result at
// <dir>/<key[:2]>/<key>.json, written atomically (temp file + rename).
// Corrupt, truncated or wrong-schema entries are treated as cache misses,
// never as errors; on read they are quarantined (renamed to <key>.corrupt)
// so the key becomes writable again instead of silently re-missing forever.
//
// The Cache interface composes: Memory is the in-process tier (optionally
// bounded, with LRU eviction), Disk the persistent one, and Tiered layers
// memory over disk with read-through backfill. The engine consults a Cache
// before executing a job and writes results through after execution. Each
// tier exports a Health snapshot for the serving layer's health endpoints.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fuse/internal/config"
	"fuse/internal/sim"
	"fuse/internal/trace"
)

// SchemaVersion versions both the key material and the result envelope. Bump
// it whenever the encoding of either changes incompatibly — or when a
// timing-affecting simulator fix invalidates previously computed results:
// old entries then read as misses and are recomputed, never misdecoded.
//
// v2: the L2 miss path became MSHR-based and event-driven (fills land in the
// tag store at DRAM completion time, FR-FCFS scheduling, pluggable memory
// backends); every v1 result carries the old optimistic off-chip timing.
const SchemaVersion = 2

// keyMaterial is everything that determines a simulation's outcome. The
// workload slot holds the workload's own canonical key material verbatim
// (trace.Workload.KeyMaterial): for synthetic workloads that is exactly the
// Profile's JSON encoding, so every key minted before the workload API
// existed — when this struct embedded trace.Profile directly — is unchanged.
type keyMaterial struct {
	Schema  int              `json:"schema"`
	GPU     config.GPUConfig `json:"gpu"`
	Profile json.RawMessage  `json:"profile"`
	Options sim.Options      `json:"options"`
}

// Key returns the content-addressed store key of a simulation point: the
// SHA-256 hex digest of the canonical JSON of the key material. Options are
// canonicalised with their defaults applied first, and the GPU's off-chip
// memory fields are resolved the way the controller resolves them, so two
// configs describing the same simulation address the same stored result.
func Key(gpu config.GPUConfig, workload trace.Workload, opts sim.Options) (string, error) {
	if workload == nil {
		return "", fmt.Errorf("store: nil workload")
	}
	material, err := workload.KeyMaterial()
	if err != nil {
		return "", fmt.Errorf("store: encoding workload key material: %w", err)
	}
	raw, err := json.Marshal(keyMaterial{
		Schema:  SchemaVersion,
		GPU:     gpu.WithMemDefaults(),
		Profile: material,
		Options: opts.WithDefaults(),
	})
	if err != nil {
		return "", fmt.Errorf("store: encoding key material: %w", err)
	}
	canon, err := canonicalJSON(raw)
	if err != nil {
		return "", fmt.Errorf("store: canonicalising key material: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalJSON re-encodes a JSON document with sorted object keys and
// verbatim numbers, so that two encodings of the same value — differing only
// in field order — produce identical bytes.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep numbers textual: a uint64 must not detour through float64
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v) // maps marshal with sorted keys
}

// ValidKey reports whether the string has the shape of a store key (64
// lowercase hex digits). Serving layers use it to reject malformed keys
// before they reach the filesystem.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// envelope is the versioned on-disk encoding of one result.
type envelope struct {
	Schema int        `json:"schema"`
	Result sim.Result `json:"result"`
}

// Encode serialises a result as a versioned JSON envelope. The encoding is
// deterministic: encoding the decoded value again yields identical bytes.
func Encode(res sim.Result) ([]byte, error) {
	b, err := json.Marshal(envelope{Schema: SchemaVersion, Result: res})
	if err != nil {
		return nil, fmt.Errorf("store: encoding result: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses a versioned envelope. Any defect — malformed JSON, a
// truncated document, a schema mismatch — is an error; callers on the cache
// path translate errors into misses.
func Decode(data []byte) (sim.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return sim.Result{}, fmt.Errorf("store: decoding result: %w", err)
	}
	if env.Schema != SchemaVersion {
		return sim.Result{}, fmt.Errorf("store: schema %d, want %d", env.Schema, SchemaVersion)
	}
	return env.Result, nil
}

// Cache is a result cache tier: Get reports a hit or a miss (never an
// error — a broken tier behaves as empty), Put stores best-effort.
type Cache interface {
	Get(key string) (sim.Result, bool)
	Put(key string, res sim.Result)
}

// Health is a point-in-time snapshot of one cache tier's condition, served
// by the fuseserve health endpoints.
type Health struct {
	// Tier names the tier ("memory" or "disk").
	Tier string `json:"tier"`
	// Entries is the resident entry count (memory tier only: the disk tier
	// would have to walk its directory to count).
	Entries int `json:"entries,omitempty"`
	// Capacity is the memory tier's entry bound (0 = unbounded).
	Capacity int `json:"capacity,omitempty"`
	// Evictions counts entries the memory tier evicted to stay within its
	// capacity.
	Evictions int64 `json:"evictions,omitempty"`
	// Quarantined counts corrupt disk entries renamed aside on read.
	Quarantined int64 `json:"quarantined,omitempty"`
	// IOFailures is the current run of consecutive disk I/O failures; any
	// successful read or write resets it.
	IOFailures int64 `json:"ioFailures,omitempty"`
	// Degraded reports whether the tier has tripped its degraded state
	// (the disk tier trips after DegradedThreshold consecutive I/O
	// failures and recovers on the next success).
	Degraded bool `json:"degraded"`
}

// HealthReporter is implemented by cache tiers that can snapshot their
// condition.
type HealthReporter interface {
	Health() Health
}

// Memory is the in-process cache tier: a mutex-guarded map with an optional
// entry bound. When bounded, the least-recently-used entry is evicted on
// overflow, so sweep traffic degrades gracefully to a working set instead of
// growing without limit.
type Memory struct {
	mu         sync.Mutex
	m          map[string]*memEntry
	head, tail *memEntry // recency list: head = most recently used
	capacity   int       // 0 = unbounded
	evictions  int64
}

// memEntry is one resident result on the recency list.
type memEntry struct {
	key        string
	res        sim.Result
	prev, next *memEntry
}

// NewMemory creates an empty, unbounded in-memory tier.
func NewMemory() *Memory {
	return &Memory{m: make(map[string]*memEntry)}
}

// NewMemoryLRU creates an in-memory tier bounded to capacity entries with
// least-recently-used eviction. A capacity of zero or less is unbounded.
func NewMemoryLRU(capacity int) *Memory {
	c := NewMemory()
	if capacity > 0 {
		c.capacity = capacity
	}
	return c
}

// unlink removes e from the recency list.
func (c *Memory) unlink(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *Memory) pushFront(e *memEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get implements Cache, freshening the entry's recency.
func (c *Memory) Get(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return sim.Result{}, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.res, true
}

// Put implements Cache, evicting the least-recently-used entry when a bound
// is set and exceeded.
func (c *Memory) Put(key string, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.res = res
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	e := &memEntry{key: key, res: res}
	c.m[key] = e
	c.pushFront(e)
	if c.capacity > 0 && len(c.m) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
		c.evictions++
	}
}

// Len returns the number of cached results.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Health implements HealthReporter. The memory tier never degrades:
// eviction is its designed response to pressure.
func (c *Memory) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Health{
		Tier:      "memory",
		Entries:   len(c.m),
		Capacity:  c.capacity,
		Evictions: c.evictions,
	}
}

// DegradedThreshold is the number of consecutive disk I/O failures after
// which the disk tier reports itself degraded. The tier keeps serving (every
// failure is still just a miss or a dropped write); the flag only feeds the
// health endpoints so operators and load balancers can react.
const DegradedThreshold = 3

// Disk is the persistent, content-addressed cache tier.
type Disk struct {
	dir string

	// quarantined counts corrupt entries renamed aside on read.
	quarantined atomic.Int64
	// ioFailures is the current run of consecutive I/O failures (reads or
	// writes that error for reasons other than the entry not existing); a
	// successful read or write resets it.
	ioFailures atomic.Int64
}

// Open creates (if necessary) and opens a disk store rooted at dir, sweeping
// any stale .tmp-* files a crashed writer may have left behind.
func Open(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sweepTempFiles(dir)
	return &Disk{dir: dir}, nil
}

// sweepTempFiles removes .tmp-* files from the store's fan-out directories.
// Writers create them with os.CreateTemp and rename them into place; a
// writer killed between the two leaves an orphan that would otherwise
// accumulate forever. Removal is best-effort — a sweep failure never blocks
// opening the store.
func sweepTempFiles(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if err != nil {
		return
	}
	for _, path := range stale {
		_ = os.Remove(path)
	}
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a key to its entry file: a two-character fan-out directory keeps
// any single directory small even for very large stores.
func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".json")
}

// EntryPath returns the on-disk path of a key's entry file. Exposed for
// tooling and fault injection that needs to manipulate entries at the byte
// level; returns "" for an invalid key.
func (d *Disk) EntryPath(key string) string {
	if !ValidKey(key) {
		return ""
	}
	return d.path(key)
}

// quarantinePath is where a corrupt entry is renamed: same fan-out
// directory, .corrupt extension.
func (d *Disk) quarantinePath(key string) string {
	return filepath.Join(d.dir, key[:2], key+".corrupt")
}

// ioFailed records one I/O failure; ioOK ends the failure run.
func (d *Disk) ioFailed() { d.ioFailures.Add(1) }
func (d *Disk) ioOK()     { d.ioFailures.Store(0) }

// Get implements Cache. Unreadable entries are misses; corrupt entries
// (truncated, malformed, wrong schema) are quarantined — renamed to
// <key>.corrupt — so the key reads as a genuine miss and the next Put
// repopulates it, instead of the store re-missing on the same bad bytes
// forever.
//
//fuselint:blocking reads the entry from disk
func (d *Disk) Get(key string) (sim.Result, bool) {
	if !ValidKey(key) {
		return sim.Result{}, false
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			d.ioFailed()
		}
		return sim.Result{}, false
	}
	res, err := Decode(data)
	if err != nil {
		if os.Rename(path, d.quarantinePath(key)) == nil {
			d.quarantined.Add(1)
		}
		return sim.Result{}, false
	}
	d.ioOK()
	return res, true
}

// Quarantined returns the number of corrupt entries quarantined on read.
func (d *Disk) Quarantined() int64 { return d.quarantined.Load() }

// Health implements HealthReporter.
func (d *Disk) Health() Health {
	fails := d.ioFailures.Load()
	return Health{
		Tier:        "disk",
		Quarantined: d.quarantined.Load(),
		IOFailures:  fails,
		Degraded:    fails >= DegradedThreshold,
	}
}

// Put implements Cache, swallowing write errors (a read-only or full store
// degrades to a pass-through cache, it does not fail the simulation).
func (d *Disk) Put(key string, res sim.Result) { _ = d.Write(key, res) }

// Write stores one result, reporting errors. The entry is written to a
// temporary file in the destination directory and renamed into place, so
// concurrent writers and crashed processes can never leave a torn entry
// behind — only a complete one or none.
//
//fuselint:blocking writes and renames the entry on disk
func (d *Disk) Write(key string, res sim.Result) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	data, err := Encode(res)
	if err != nil {
		return err
	}
	if err := d.writeEntry(d.path(key), data); err != nil {
		d.ioFailed()
		return err
	}
	d.ioOK()
	return nil
}

// writeEntry performs the atomic temp-file + rename write of one entry.
func (d *Disk) writeEntry(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len walks the store and returns the number of valid-looking entries.
func (d *Disk) Len() int {
	n := 0
	_ = filepath.WalkDir(d.dir, func(path string, entry os.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return nil
		}
		if filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

// OpenTiered is the standard wiring of every CLI tool and server that takes
// a -store flag: a memory tier bounded to memCap entries with LRU eviction
// (0 = unbounded) over the disk store at dir, created if necessary. An empty
// dir gives the memory tier alone. When the disk store cannot be opened the
// memory tier is returned alone together with the open error, which callers
// report as a warning: the returned Tiered is always usable.
func OpenTiered(dir string, memCap int) (*Tiered, error) {
	mem := NewMemoryLRU(memCap)
	if dir == "" {
		return NewTiered(mem), nil
	}
	disk, err := Open(dir)
	if err != nil {
		return NewTiered(mem), err
	}
	return NewTiered(mem, disk), nil
}

// Tiered layers cache tiers fastest-first: Get probes in order and backfills
// every faster tier on a hit; Put writes through to all tiers.
type Tiered struct {
	tiers []Cache
}

// NewTiered composes tiers, fastest first (e.g. NewTiered(mem, disk)).
func NewTiered(tiers ...Cache) *Tiered {
	return &Tiered{tiers: tiers}
}

// Get implements Cache.
func (t *Tiered) Get(key string) (sim.Result, bool) {
	for i, c := range t.tiers {
		if res, ok := c.Get(key); ok {
			for j := 0; j < i; j++ {
				t.tiers[j].Put(key, res)
			}
			return res, true
		}
	}
	return sim.Result{}, false
}

// Put implements Cache.
func (t *Tiered) Put(key string, res sim.Result) {
	for _, c := range t.tiers {
		c.Put(key, res)
	}
}

// Health snapshots every tier that can report one, fastest-first.
func (t *Tiered) Health() []Health {
	var out []Health
	for _, c := range t.tiers {
		if hr, ok := c.(HealthReporter); ok {
			out = append(out, hr.Health())
		}
	}
	return out
}

// Degraded reports whether any tier is degraded.
func (t *Tiered) Degraded() bool {
	for _, h := range t.Health() {
		if h.Degraded {
			return true
		}
	}
	return false
}

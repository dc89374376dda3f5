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
// so the key does not depend on the order in which fields were encoded. The
// key is the one identity of a simulation: the engine deduplicates jobs by it
// within a process as well as addressing stored results with it.
//
// Disk layout: append-only segment files, <dir>/<seq>.seg, one per writing
// Disk, named by a sequence number so that they sort in creation order. Each result
// is one framed record appended with a single write: magic, payload length,
// a CRC-32C over key and payload, the 32-byte binary key, then the versioned
// JSON envelope. Open streams every segment into an in-memory index (key ->
// segment, offset, length); the last valid record of a key wins. A Get that
// misses the index first rescans the bytes the segments gained, so processes
// sharing a directory see each other's results. A torn tail (a writer killed
// mid-append) ends its segment's scan; a record failing its CRC, key or
// decode check is quarantined (counted, and read as a miss until the key is
// written again). Defects are cache misses, never errors. The directory
// accumulates one segment per writing process and is never compacted; the
// one-file-per-result trees of earlier versions (<key[:2]>/<key>.json) are
// not read.
//
// The Cache interface composes: Memory is the in-process tier (optionally
// bounded, with LRU eviction), Disk the persistent one, and Tiered layers
// memory over disk with read-through backfill. The engine consults a Cache
// before executing a job and writes results through after execution. Each
// tier exports a Health snapshot for the serving layer's health endpoints.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
	canon, err := canonicalize(raw)
	if err != nil {
		return "", fmt.Errorf("store: canonicalising key material: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalize returns raw, a JSON document as encoding/json.Marshal writes
// it, with the members of every object sorted by name. Numbers, literals and
// strings are copied verbatim where encoding/json would write them the same
// way again, so the bytes equal those of decoding into any (numbers as
// json.Number) and marshalling again, at a fraction of the cost.
func canonicalize(raw []byte) ([]byte, error) {
	c := canonicalizer{src: raw, out: make([]byte, 0, len(raw)), scratch: make([]byte, 0, len(raw)),
		members: make([]member, 0, 64)} // the open objects of a key hold about 50 members
	if err := c.value(); err != nil || c.pos != len(raw) {
		return nil, cmp.Or(err, errMalformed)
	}
	return c.out, nil
}

var errMalformed = errors.New("malformed JSON")

// canonicalizer is one canonicalize pass over src. The elements of each
// array or object are written to out in source order, then copied back
// through scratch with commas, object members ordered by name.
type canonicalizer struct {
	src, out, scratch []byte
	pos               int
	members           []member // the members of every open array or object, innermost last
}

// member is one array element or object member: its decoded name (nil for
// an element) and the span of its bytes in out, "name":value for a member.
type member struct {
	name       []byte
	start, end int
}

// value copies the value at src[pos:] to out.
func (c *canonicalizer) value() error {
	if c.pos >= len(c.src) {
		return errMalformed
	}
	switch open := c.src[c.pos]; open {
	case '"':
		_, err := c.str()
		return err
	case '[', '{':
		closing := open + 2 // ']' and '}'
		c.pos++
		c.out = append(c.out, open)
		body, base := len(c.out), len(c.members)
		for n := 0; !c.expect(closing); n++ {
			if n > 0 && !c.expect(',') {
				return errMalformed
			}
			m := member{start: len(c.out)}
			if open == '{' {
				var err error
				if m.name, err = c.str(); err != nil {
					return err
				}
				if !c.expect(':') {
					return errMalformed
				}
				c.out = append(c.out, ':')
			}
			if err := c.value(); err != nil {
				return err
			}
			m.end = len(c.out)
			c.members = append(c.members, m)
		}
		ms := c.members[base:]
		if open == '{' {
			slices.SortFunc(ms, func(a, b member) int { return bytes.Compare(a.name, b.name) })
		}
		c.scratch = append(c.scratch[:0], c.out[body:]...)
		c.out = c.out[:body]
		for i, m := range ms {
			if i > 0 {
				c.out = append(c.out, ',')
			}
			c.out = append(c.out, c.scratch[m.start-body:m.end-body]...)
		}
		c.members = c.members[:base]
		c.out = append(c.out, closing)
		return nil
	}
	start := c.pos // a number or a literal
	for c.pos < len(c.src) && strings.IndexByte("+-.0123456789Eaeflnrstu", c.src[c.pos]) >= 0 {
		c.pos++
	}
	if c.pos == start {
		return errMalformed
	}
	c.out = append(c.out, c.src[start:c.pos]...)
	return nil
}

// expect consumes the byte at pos if it is b.
func (c *canonicalizer) expect(b byte) bool {
	if c.pos < len(c.src) && c.src[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// str copies the string at src[pos:] to out and returns its decoded bytes.
// encoding/json writes a string without escapes the same way again, so such
// a string is copied verbatim; one with escapes is decoded and encoded again.
func (c *canonicalizer) str() ([]byte, error) {
	start, escaped := c.pos, false
	if !c.expect('"') {
		return nil, errMalformed
	}
	for ; c.pos < len(c.src) && c.src[c.pos] != '"'; c.pos++ {
		if c.src[c.pos] == '\\' {
			escaped = true
			c.pos++ // an escaped quote does not end the string
		}
	}
	if !c.expect('"') {
		return nil, errMalformed
	}
	lit := c.src[start:c.pos]
	if !escaped {
		c.out = append(c.out, lit...)
		return lit[1 : len(lit)-1], nil
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return nil, err
	}
	enc, _ := json.Marshal(s) // marshalling a string cannot fail
	c.out = append(c.out, enc...)
	return []byte(s), nil
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
	// Entries is the resident entry count: the memory tier's map, the disk
	// tier's index of records.
	Entries int `json:"entries,omitempty"`
	// Capacity is the memory tier's entry bound (0 = unbounded).
	Capacity int `json:"capacity,omitempty"`
	// Evictions counts entries the memory tier evicted to stay within its
	// capacity.
	Evictions int64 `json:"evictions,omitempty"`
	// Quarantined counts disk records that failed their CRC, key or decode
	// check.
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

// Segment record framing. A record is a fixed header — magic, payload
// length, CRC-32C over key and payload, the 32-byte binary key — followed by
// the payload, which is exactly the Encode envelope. All integers are
// little-endian.
const (
	recMagic  = 0x52455346 // "FSER" on disk
	keyLen    = sha256.Size
	headerLen = 4 + 4 + 4 + keyLen
	segExt    = ".seg"
)

// castagnoli is the CRC-32C table records are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Disk is the persistent, content-addressed cache tier: a directory of
// append-only segment files and an in-memory index over them. Each Disk
// appends to one segment of its own, created on its first Put; it reads
// every segment in the directory, including those other processes are still
// appending to.
type Disk struct {
	dir string

	// wmu serialises appends to own, this Disk's segment (nil until the
	// first Put, and again after a failed append). ownEnd is own's length.
	wmu    sync.Mutex
	own    *segment
	ownID  uint32
	ownEnd int64

	// scanMu serialises scans: Open's, and the rescans of Get misses and
	// Len. A scan reads only the bytes segments gained since the last one.
	scanMu sync.Mutex

	// mu guards the index and the segment table. lastSeq is the highest
	// segment sequence number seen in the directory.
	mu      sync.Mutex
	index   map[[keyLen]byte]loc
	segs    []*segment // by segment id
	byName  map[string]uint32
	lastSeq uint64

	// quarantined counts records that failed their CRC, key or decode
	// check; such a key reads as a miss until the next Put of it.
	quarantined atomic.Int64
	// ioFailures is the current run of consecutive I/O failures (reads,
	// rescans or writes that error); a successful read or write resets it.
	ioFailures atomic.Int64
}

// segment is one open segment file. scanned (the offset of the first record
// not yet indexed) and size (the file size the last scan saw) belong to the
// scanner and are touched only under Disk.scanMu.
type segment struct {
	f             *os.File
	own           bool // written by this Disk, which indexes its records as it appends them
	scanned, size int64
}

// loc locates one record: segment id, offset and length (header included).
type loc struct {
	seg uint32
	n   uint32
	off int64
}

// Open creates (if necessary) and opens a disk store rooted at dir, indexing
// every segment file in it.
func Open(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{dir: dir, index: make(map[[keyLen]byte]loc), byName: make(map[string]uint32)}
	if err := d.rescan(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return d, nil
}

// parseKey decodes a store key to its binary form.
func parseKey(key string) ([keyLen]byte, bool) {
	var k [keyLen]byte
	if !ValidKey(key) {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(key))
	return k, err == nil
}

// Locator is where a key's current record lives: the segment file's path,
// the record's offset in it and its length. Exposed for fault injection that
// manipulates records at the byte level.
type Locator struct {
	Path   string
	Offset int64
	Len    int
}

// Locate returns the locator of key's indexed record, or false if the key is
// invalid or not indexed.
func (d *Disk) Locate(key string) (Locator, bool) {
	k, ok := parseKey(key)
	if !ok {
		return Locator{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.index[k]
	if !ok {
		return Locator{}, false
	}
	return Locator{Path: d.segs[l.seg].f.Name(), Offset: l.off, Len: int(l.n)}, true
}

// ioFailed records one I/O failure; ioOK ends the failure run.
func (d *Disk) ioFailed() { d.ioFailures.Add(1) }
func (d *Disk) ioOK()     { d.ioFailures.Store(0) }

// lookup returns key's indexed record and the file holding it.
func (d *Disk) lookup(k [keyLen]byte) (loc, *os.File, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.index[k]
	if !ok {
		return loc{}, nil, false
	}
	return l, d.segs[l.seg].f, true
}

// quarantine counts a record that failed its checks and drops it from the
// index — unless a newer record of the key has replaced it meanwhile — so
// the key reads as a miss until the next Put appends a fresh record.
func (d *Disk) quarantine(k [keyLen]byte, l loc) {
	d.quarantined.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.index[k] == l {
		delete(d.index, k)
	}
}

// Get implements Cache. On an index miss it first rescans what the segments
// gained, so results other processes appended are found. A record that fails
// its CRC, key or decode check is quarantined and reads as a miss.
//
//fuselint:blocking reads the record from disk
func (d *Disk) Get(key string) (sim.Result, bool) {
	k, ok := parseKey(key)
	if !ok {
		return sim.Result{}, false
	}
	l, f, ok := d.lookup(k)
	if !ok {
		if err := d.rescan(); err != nil {
			d.ioFailed()
			return sim.Result{}, false
		}
		if l, f, ok = d.lookup(k); !ok {
			return sim.Result{}, false
		}
	}
	rec := make([]byte, l.n)
	if _, err := f.ReadAt(rec, l.off); err != nil {
		if errors.Is(err, io.EOF) { // the segment shrank under its index
			d.quarantine(k, l)
		} else {
			d.ioFailed()
		}
		return sim.Result{}, false
	}
	n, crc, ok := parseHeader(rec)
	if !ok || int(n) != len(rec)-headerLen || [keyLen]byte(rec[12:headerLen]) != k ||
		crc32.Checksum(rec[12:], castagnoli) != crc {
		d.quarantine(k, l)
		return sim.Result{}, false
	}
	res, err := Decode(rec[headerLen:])
	if err != nil {
		d.quarantine(k, l)
		return sim.Result{}, false
	}
	d.ioOK()
	return res, true
}

// parseHeader checks a record header's magic and returns its payload length
// and CRC. A zero length is a bad header: no envelope is empty.
func parseHeader(h []byte) (n, crc uint32, ok bool) {
	if binary.LittleEndian.Uint32(h) != recMagic {
		return 0, 0, false
	}
	n = binary.LittleEndian.Uint32(h[4:])
	return n, binary.LittleEndian.Uint32(h[8:]), n > 0
}

// Health implements HealthReporter.
func (d *Disk) Health() Health {
	d.mu.Lock()
	entries := len(d.index)
	d.mu.Unlock()
	fails := d.ioFailures.Load()
	return Health{
		Tier:        "disk",
		Entries:     entries,
		Quarantined: d.quarantined.Load(),
		IOFailures:  fails,
		Degraded:    fails >= DegradedThreshold,
	}
}

// Put implements Cache, swallowing write errors (a read-only or full store
// degrades to a pass-through cache, it does not fail the simulation).
func (d *Disk) Put(key string, res sim.Result) { _ = d.Write(key, res) }

// Write stores one result, reporting errors: the framed record is appended
// to this Disk's segment with a single write. A process killed mid-write
// leaves at most a torn record at its segment's tail, which scans stop at.
//
//fuselint:blocking appends the record on disk
func (d *Disk) Write(key string, res sim.Result) error {
	k, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("store: invalid key %q", key)
	}
	data, err := Encode(res)
	if err != nil {
		return err
	}
	l, err := d.append(frame(k, data))
	if err != nil {
		d.ioFailed()
		return err
	}
	d.mu.Lock()
	d.index[k] = l
	d.mu.Unlock()
	d.ioOK()
	return nil
}

// frame builds the segment record of one payload.
func frame(k [keyLen]byte, payload []byte) []byte {
	rec := make([]byte, headerLen, headerLen+len(payload))
	binary.LittleEndian.PutUint32(rec, recMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	copy(rec[12:], k[:])
	rec = append(rec, payload...)
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[12:], castagnoli))
	return rec
}

// append writes one record at the end of this Disk's segment, creating the
// segment on first use. After a failed write the segment is abandoned — it
// may end in a torn record — and the next append starts a fresh one.
func (d *Disk) append(rec []byte) (loc, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.own == nil {
		if err := d.createSegment(); err != nil {
			return loc{}, fmt.Errorf("store: %w", err)
		}
	}
	if _, err := d.own.f.Write(rec); err != nil {
		d.own = nil
		return loc{}, fmt.Errorf("store: %w", err)
	}
	l := loc{seg: d.ownID, n: uint32(len(rec)), off: d.ownEnd}
	d.ownEnd += int64(len(rec))
	return l, nil
}

// createSegment creates this Disk's segment. Segments are named by a
// sequence number, 16 hex digits wide so that names sort in creation order:
// the first number above every segment seen that is still free. O_EXCL
// settles races with other writers, which move on to the next number.
func (d *Disk) createSegment() error {
	d.mu.Lock()
	seq := d.lastSeq
	d.mu.Unlock()
	for {
		seq++
		name := segName(seq)
		f, err := os.OpenFile(filepath.Join(d.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		d.own, d.ownID, d.ownEnd = &segment{f: f, own: true}, uint32(len(d.segs)), 0
		d.segs = append(d.segs, d.own)
		d.byName[name] = d.ownID
		d.lastSeq = max(d.lastSeq, seq)
		return nil
	}
}

// segName and segSeq convert between a segment's sequence number and its
// file name; segSeq reports false for names that are not segments.
func segName(seq uint64) string { return fmt.Sprintf("%016x%s", seq, segExt) }

func segSeq(name string) (uint64, bool) {
	hexSeq, ok := strings.CutSuffix(name, segExt)
	if !ok || len(hexSeq) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexSeq, 16, 64)
	return seq, err == nil
}

// rescan opens the segments that appeared in the directory since the last
// scan, in name order, then indexes the records every segment gained. Of
// several records of one key, the last one read wins.
func (d *Disk) rescan() error {
	d.scanMu.Lock()
	defer d.scanMu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		seq, ok := segSeq(name)
		if !ok || !e.Type().IsRegular() {
			continue
		}
		d.mu.Lock()
		_, known := d.byName[name]
		d.mu.Unlock()
		if known {
			continue
		}
		f, err := os.Open(filepath.Join(d.dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue // removed since the listing
		}
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.byName[name] = uint32(len(d.segs))
		d.segs = append(d.segs, &segment{f: f})
		d.lastSeq = max(d.lastSeq, seq)
		d.mu.Unlock()
	}
	d.mu.Lock()
	segs := d.segs
	d.mu.Unlock()
	for id, s := range segs {
		if s.own {
			continue
		}
		if err := d.scanSegment(uint32(id), s); err != nil {
			return err
		}
	}
	return nil
}

// scanBuf bounds the memory a scan reads through: a segment streams through
// a buffer of at most this size, never as a whole-file read.
const scanBuf = 64 << 10

// scanSegment indexes the records s gained since its last scan, checking
// each one's CRC. A bad header, or a record running past the end of the
// file — a torn tail from a killed writer, or an append still in flight —
// ends the scan at that record; the next scan resumes there once the file
// has grown. A CRC failure is quarantined and skipped.
func (d *Disk) scanSegment(id uint32, s *segment) error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == s.size {
		return nil
	}
	gained := size - s.scanned
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, s.scanned, gained), int(min(gained, scanBuf)))
	type indexed struct {
		k [keyLen]byte
		l loc
	}
	var found []indexed
	off := s.scanned
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return err
		}
		n, want, ok := parseHeader(hdr[:])
		end := off + headerLen + int64(n)
		if !ok || end > size {
			break
		}
		crc := crc32.Update(0, castagnoli, hdr[12:])
		for rem := int(n); rem > 0; {
			chunk, err := r.Peek(min(rem, r.Size()))
			if err != nil {
				return err
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			rem -= len(chunk)
			_, _ = r.Discard(len(chunk)) // cannot fail: the bytes are buffered
		}
		if crc == want {
			found = append(found, indexed{[keyLen]byte(hdr[12:]), loc{seg: id, n: uint32(end - off), off: off}})
		} else {
			d.quarantined.Add(1)
		}
		off = end
	}
	s.scanned, s.size = off, size
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range found {
		d.index[e.k] = e.l
	}
	return nil
}

// Len rescans the store and returns the number of indexed records.
//
//fuselint:blocking rescans the segments
func (d *Disk) Len() int {
	_ = d.rescan()
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
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

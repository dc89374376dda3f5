package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fuse/internal/config"
	"fuse/internal/core"
	"fuse/internal/predictor"
	"fuse/internal/sim"
	"fuse/internal/trace"
)

// sampleResult builds a result with every field populated, including the
// nested accuracy counters, so round-trip defects cannot hide in zero values.
func sampleResult(rng *rand.Rand) sim.Result {
	acc := predictor.AccuracyTracker{
		True:    rng.Uint64() % 1e6,
		False:   rng.Uint64() % 1e6,
		Neutral: rng.Uint64() % 1e6,
	}
	return sim.Result{
		GPUName:      "Fermi-like",
		L1DKind:      config.DyFUSE,
		Workload:     "ATAX",
		Cycles:       int64(rng.Uint64() >> 1),
		Instructions: rng.Uint64(),
		IPC:          rng.Float64() * 4,
		L1D: core.Stats{
			Accesses:            rng.Uint64(),
			Reads:               rng.Uint64(),
			Writes:              rng.Uint64(),
			Hits:                rng.Uint64(),
			QueueHits:           rng.Uint64(),
			SwapHits:            rng.Uint64(),
			STTWriteStallCycles: rng.Uint64(),
			Accuracy:            acc,
		},
		L1DMissRate:     rng.Float64(),
		OutgoingPerSM:   rng.Float64() * 100,
		STTWriteStalls:  rng.Uint64(),
		TagSearchStalls: rng.Uint64(),
		PredTrue:        rng.Float64(),
		PredNeutral:     rng.Float64(),
		PredFalse:       rng.Float64(),
		OffChipFraction: rng.Float64(),
		NetworkFraction: rng.Float64(),
		DRAMFraction:    rng.Float64(),
		L2MissRate:      rng.Float64(),
		L2Accesses:      rng.Uint64(),
		DRAMAccesses:    rng.Uint64(),
		NoCRequests:     rng.Uint64(),
		NoCResponses:    rng.Uint64(),
		AvgFillNoC:      rng.Float64() * 300,
		AvgFillMemory:   rng.Float64() * 300,
		SRAMReads:       rng.Uint64(),
		SRAMWrites:      rng.Uint64(),
		STTReads:        rng.Uint64(),
		STTWrites:       rng.Uint64(),
		SimulatedSMs:    15,
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	// Property: encode -> decode -> re-encode is byte-identical and the
	// decoded value equals the original, for arbitrary results — including
	// extreme uint64 values beyond float64's integer range and subnormal
	// floats.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		res := sampleResult(rng)
		if i == 0 {
			res.Instructions = math.MaxUint64
			res.L1D.Accesses = 1<<53 + 1 // not representable as float64
			res.IPC = math.SmallestNonzeroFloat64
		}
		enc, err := Encode(res)
		if err != nil {
			t.Fatalf("iteration %d: Encode: %v", i, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("iteration %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(dec, res) {
			t.Fatalf("iteration %d: decode mismatch:\n got %+v\nwant %+v", i, dec, res)
		}
		enc2, err := Encode(dec)
		if err != nil {
			t.Fatalf("iteration %d: re-Encode: %v", i, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("iteration %d: re-encoding differs:\n%s\n%s", i, enc, enc2)
		}
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	gpu := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	prof, _ := trace.ProfileByName("ATAX")
	opts := sim.Options{InstructionsPerWarp: 200, SMOverride: 2, Seed: 42}

	k1, err := Key(gpu, trace.Synthetic(prof), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ValidKey(k1) {
		t.Fatalf("key %q is not 64 lowercase hex digits", k1)
	}
	k2, _ := Key(gpu, trace.Synthetic(prof), opts)
	if k1 != k2 {
		t.Errorf("key not deterministic: %s vs %s", k1, k2)
	}
	// Defaults applied: a zero field and its explicit default are the same
	// simulation and must share a key.
	kDefaulted, _ := Key(gpu, trace.Synthetic(prof), sim.Options{InstructionsPerWarp: 200, SMOverride: 2, Seed: 42, MaxCycles: 4_000_000, RequestBytes: 32})
	if kDefaulted != k1 {
		t.Errorf("explicitly defaulted options should hash identically")
	}
	// Any material change must change the key.
	kSeed, _ := Key(gpu, trace.Synthetic(prof), sim.Options{InstructionsPerWarp: 200, SMOverride: 2, Seed: 43})
	if kSeed == k1 {
		t.Errorf("seed change should change the key")
	}
	prof2, _ := trace.ProfileByName("GEMM")
	kProf, _ := Key(gpu, trace.Synthetic(prof2), opts)
	if kProf == k1 {
		t.Errorf("profile change should change the key")
	}
	gpu2 := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))
	kGPU, _ := Key(gpu2, trace.Synthetic(prof), opts)
	if kGPU == k1 {
		t.Errorf("GPU configuration change should change the key")
	}

	// Every input reaches the key: perturbing any exported scalar leaf of
	// the GPU configuration, the options or the profile, one at a time and
	// away from its canonical value, must change the key. A field tagged
	// json:"-", one that WithMemDefaults or WithDefaults drops, an unexported
	// field or a field of a kind the walk cannot perturb fails here.
	in := keyInputs{GPU: gpu.WithMemDefaults(), Options: opts.WithDefaults(), Profile: prof}
	base := in.key(t)
	leaves := 0
	walkKeyLeaves(t, reflect.ValueOf(&in).Elem(), "", func(path string, v reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		if !perturbKeyLeaf(path, v) {
			t.Errorf("%s: the walk cannot perturb a %s; extend perturbKeyLeaf", path, v.Kind())
			return
		}
		if in.key(t) == base {
			t.Errorf("perturbing %s leaves the store key unchanged", path)
		}
		v.Set(old)
		leaves++
	})
	if in.key(t) != base {
		t.Fatal("the walk did not restore its inputs")
	}
	t.Logf("%d key leaves perturbed", leaves)
}

// keyInputs is the material a synthetic simulation point's key covers, in
// the form the key-coverage walk perturbs.
type keyInputs struct {
	GPU     config.GPUConfig
	Options sim.Options
	Profile trace.Profile
}

func (in *keyInputs) key(t *testing.T) string {
	t.Helper()
	k, err := Key(in.GPU, trace.Synthetic(in.Profile), in.Options)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// walkKeyLeaves calls visit on every non-struct field below v, depth first,
// with its dotted path. An unexported field cannot reach the JSON key
// material, so it fails the test instead.
func walkKeyLeaves(t *testing.T, v reflect.Value, prefix string, visit func(string, reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		path := prefix + f.Name
		switch {
		case !f.IsExported():
			t.Errorf("%s is unexported, so it never reaches the store key", path)
		case f.Type.Kind() == reflect.Struct:
			walkKeyLeaves(t, v.Field(i), path+".", visit)
		default:
			visit(path, v.Field(i))
		}
	}
}

// perturbKeyLeaf moves a scalar away from its current value and reports
// whether it knew how.
func perturbKeyLeaf(path string, v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		// The backend must stay a known one: WithMemDefaults resolves the
		// memory fields only for a valid name.
		if path == "GPU.MemBackend" {
			v.SetString("HBM2")
		} else {
			v.SetString(v.String() + "'")
		}
	default:
		return false
	}
	return true
}

// canonicalJSON is the reference canonicalisation that canonicalize must
// reproduce byte for byte: decode into any, keeping numbers textual so a
// uint64 does not detour through float64, and marshal again (maps marshal
// with sorted keys).
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func TestCanonicalJSONStableAcrossFieldOrdering(t *testing.T) {
	a := []byte(`{"b":2,"a":{"y":1e3,"x":18446744073709551615,"\u00e8":"\u003c\ufffd\"","é":[]},"c":[1,2.5,{"z":null,"a":true}],"":{}}`)
	b := []byte(`{"c":[1,2.5,{"a":true,"z":null}],"":{},"a":{"é":[],"x":18446744073709551615,"\u00e8":"\u003c\ufffd\"","y":1e3},"b":2}`)
	ca, err := canonicalize(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	want, err := canonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, want) {
		t.Errorf("canonicalize differs from the reference:\n got %s\nwant %s", ca, want)
	}
	// Numbers must be preserved verbatim: a detour through float64 would
	// round 2^64-1 and fold 1e3 to 1000.
	if !strings.Contains(string(ca), "18446744073709551615") || !strings.Contains(string(ca), "1e3") {
		t.Errorf("numbers were not preserved verbatim: %s", ca)
	}
	for _, bad := range []string{``, `{`, `{"a"}`, `{"a":1,}`, `[1 2]`, `"open`, `{"a":1}x`} {
		if _, err := canonicalize([]byte(bad)); err == nil {
			t.Errorf("canonicalize(%q) should fail", bad)
		}
	}
}

func TestDecodeRejectsCorruptAndWrongSchema(t *testing.T) {
	res := sampleResult(rand.New(rand.NewSource(2)))
	enc, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"garbage":      []byte("not json at all"),
		"truncated":    enc[:len(enc)/2],
		"wrong schema": []byte(`{"schema": 999, "result": {}}` + "\n"),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode should fail", name)
		}
	}
}

func TestDiskPutGetAndCorruptEntriesAreMisses(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(rand.New(rand.NewSource(3)))
	gpu := config.FermiGPU(config.NewL1DConfig(config.BaseFUSE))
	prof, _ := trace.ProfileByName("GEMM")
	key, err := Key(gpu, trace.Synthetic(prof), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(key); ok {
		t.Fatalf("empty store should miss")
	}
	if err := d.Write(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok {
		t.Fatalf("stored entry should hit")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("disk round-trip mismatch")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}

	// Corrupt the record in place: the next Get must be a miss, not an
	// error or a garbage result.
	overwrite(t, d, key, headerLen, []byte(`{"schema":1,"result":`))
	if _, ok := d.Get(key); ok {
		t.Errorf("corrupted record should read as a miss")
	}

	// Malformed keys never touch the filesystem.
	if _, ok := d.Get("../../etc/passwd"); ok {
		t.Errorf("invalid key should miss")
	}
	if err := d.Write("short", res); err == nil {
		t.Errorf("invalid key should not be writable")
	}
}

func TestDiskAppendsToOneSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var want int64
	for _, b := range []byte{0x01, 0x02, 0x03, 0x02} { // one key written twice
		res := sampleResult(rng)
		enc, err := Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(hexKey(b), res); err != nil {
			t.Fatal(err)
		}
		want += int64(headerLen + len(enc))
	}
	// Every record went to one segment file: no fan-out directories, no
	// temporary files, nothing but appended records.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Type().IsRegular() || filepath.Ext(entries[0].Name()) != segExt {
		t.Fatalf("store directory holds %v, want one segment file", entries)
	}
	fi, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Errorf("segment is %d bytes, want the %d bytes of four records", fi.Size(), want)
	}
	if d.Len() != 3 || d.Health().Entries != 3 {
		t.Errorf("Len = %d, Health().Entries = %d, want 3 distinct keys", d.Len(), d.Health().Entries)
	}
}

func TestTieredBackfillsFasterTiers(t *testing.T) {
	mem := NewMemory()
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)
	res := sampleResult(rand.New(rand.NewSource(5)))
	key := strings.Repeat("cd", 32)

	// Seed only the disk tier, as a previous process would have.
	if err := disk.Write(key, res); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 0 {
		t.Fatalf("memory tier should start cold")
	}
	got, ok := tiered.Get(key)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("tiered read through disk failed")
	}
	if mem.Len() != 1 {
		t.Errorf("hit should backfill the memory tier")
	}
	if _, ok := mem.Get(key); !ok {
		t.Errorf("backfilled entry missing from memory")
	}

	// Put writes through to every tier.
	key2 := strings.Repeat("ef", 32)
	tiered.Put(key2, res)
	if _, ok := mem.Get(key2); !ok {
		t.Errorf("Put should reach the memory tier")
	}
	if _, ok := disk.Get(key2); !ok {
		t.Errorf("Put should reach the disk tier")
	}
	if _, ok := tiered.Get(strings.Repeat("00", 32)); ok {
		t.Errorf("unknown key should miss every tier")
	}
}

func TestKeyCanonicalisesMemoryConfig(t *testing.T) {
	prof, _ := trace.ProfileByName("ATAX")
	opts := sim.Options{}

	// MemBackend "" resolves to the GDDR5 default; zero DRAM geometry
	// resolves to the controller defaults — both must address the same
	// stored result as the fully explicit Fermi config.
	explicit := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	implicit := explicit
	implicit.MemBackend = ""
	implicit.DRAMBanksPerChannel = 0
	implicit.DRAMRowBytes = 0
	implicit.DRAMBurstCycles = 0
	implicit.DRAMQueueDepth = 0

	ke, err := Key(explicit, trace.Synthetic(prof), opts)
	if err != nil {
		t.Fatal(err)
	}
	ki, err := Key(implicit, trace.Synthetic(prof), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ke != ki {
		t.Errorf("implicit and explicit memory defaults must share a key:\n%s\n%s", ke, ki)
	}

	// Timing fields a non-baseline backend ignores must not split keys.
	hbmA := explicit
	hbmA.MemBackend = "HBM2"
	hbmB := hbmA
	hbmB.TCL = 99
	ka, _ := Key(hbmA, trace.Synthetic(prof), opts)
	kb, _ := Key(hbmB, trace.Synthetic(prof), opts)
	if ka != kb {
		t.Errorf("backend-ignored timing fields must not change the key")
	}

	// A different backend is a different simulation.
	if ka == ke {
		t.Errorf("backend must be part of the key")
	}
}

// legacyKeyMaterial replicates, field for field, the key material this
// package hashed before the workload API existed, when the Profile struct
// was embedded directly. TestBuiltinKeysPinned re-derives every builtin key
// through it: if the workload redesign (or any later change) alters the
// canonical bytes of a builtin profile's key, existing v2 store entries
// would silently become misses — this test fails first.
type legacyKeyMaterial struct {
	Schema  int              `json:"schema"`
	GPU     config.GPUConfig `json:"gpu"`
	Profile trace.Profile    `json:"profile"`
	Options sim.Options      `json:"options"`
}

func legacyKey(t *testing.T, gpu config.GPUConfig, prof trace.Profile, opts sim.Options) string {
	t.Helper()
	raw, err := json.Marshal(legacyKeyMaterial{
		Schema:  SchemaVersion,
		GPU:     gpu.WithMemDefaults(),
		Profile: prof,
		Options: opts.WithDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// goldenATAXKey is the store key of (Fermi Dy-FUSE, ATAX, default options)
// as minted by the pre-workload-API implementation. A literal constant, not
// a derived value: it catches changes that would slip through if both sides
// of a comparison were recomputed (e.g. renaming a Profile field).
const goldenATAXKey = "e9078ad3450d6ce0e67b9d4749630b77cf7f754cce13a3e916f3fc2153dfef36"

func TestBuiltinKeysPinned(t *testing.T) {
	if SchemaVersion != 2 {
		t.Fatalf("SchemaVersion = %d; the workload redesign must not bump it", SchemaVersion)
	}
	for _, kind := range []config.L1DKind{config.L1SRAM, config.DyFUSE} {
		gpu := config.FermiGPU(config.NewL1DConfig(kind))
		for _, prof := range trace.Profiles() {
			if !trace.IsBuiltin(prof.Name) {
				continue // other tests may have registered custom profiles
			}
			want := legacyKey(t, gpu, prof, sim.Options{})
			got, err := Key(gpu, trace.Synthetic(prof), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: key changed: %s != legacy %s", kind, prof.Name, got, want)
			}
		}
	}
	prof, _ := trace.ProfileByName("ATAX")
	got, err := Key(config.FermiGPU(config.NewL1DConfig(config.DyFUSE)), trace.Synthetic(prof), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenATAXKey {
		t.Errorf("golden ATAX key changed:\n got %s\nwant %s", got, goldenATAXKey)
	}
}

func TestCustomWorkloadKeysDistinctAndStable(t *testing.T) {
	gpu := config.FermiGPU(config.NewL1DConfig(config.DyFUSE))
	custom := trace.Profile{
		Name: "store-custom", Suite: "Custom", Description: "high-APKI write-heavy",
		APKI: 120, Mix: trace.ReadLevelMix{WM: 0.35, ReadIntensive: 0.25, WORM: 0.3, WORO: 0.1},
		WorkingSetBlocks: 420, Irregular: 0.4, WORMReuse: 3,
	}
	k1, err := Key(gpu, trace.Synthetic(custom), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(gpu, trace.Synthetic(custom), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("custom workload key must be stable: %s != %s", k1, k2)
	}
	builtin := map[string]bool{}
	for _, prof := range trace.Profiles() {
		k, err := Key(gpu, trace.Synthetic(prof), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		builtin[k] = true
	}
	if builtin[k1] {
		t.Errorf("custom workload key collides with a builtin key")
	}

	// A phased workload over a builtin keys differently from the builtin
	// itself (the kind discriminator keeps the material disjoint).
	atax, _ := trace.ProfileByName("ATAX")
	phased := trace.NewPhased("store-phased", []trace.Phase{{Profile: atax}})
	pk, err := Key(gpu, phased, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if builtin[pk] || pk == k1 {
		t.Errorf("phased workload key must be distinct")
	}
	pk2, _ := Key(gpu, trace.NewPhased("store-phased", []trace.Phase{{Profile: atax}}), sim.Options{})
	if pk != pk2 {
		t.Errorf("phased workload key must be stable")
	}
}

// hexKey mints a syntactically valid store key from a one-byte seed.
func hexKey(b byte) string {
	return strings.Repeat(hex.EncodeToString([]byte{b}), 32)
}

func TestMemoryLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewMemoryLRU(3)
	rng := rand.New(rand.NewSource(6))
	res := sampleResult(rng)
	k1, k2, k3, k4 := hexKey(0x10), hexKey(0x11), hexKey(0x12), hexKey(0x13)

	c.Put(k1, res)
	c.Put(k2, res)
	c.Put(k3, res)
	// Freshen k1: k2 becomes the least recently used.
	if _, ok := c.Get(k1); !ok {
		t.Fatalf("k1 should hit")
	}
	c.Put(k4, res)
	if _, ok := c.Get(k2); ok {
		t.Errorf("k2 should have been evicted as least recently used")
	}
	for _, k := range []string{k1, k3, k4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %s should survive eviction", k[:4])
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	h := c.Health()
	if h.Tier != "memory" || h.Entries != 3 || h.Capacity != 3 || h.Evictions != 1 {
		t.Errorf("Health = %+v, want memory/3/3/1", h)
	}
	if h.Degraded {
		t.Errorf("memory tier must never report degraded")
	}

	// Re-Put of a resident key freshens instead of growing.
	c.Put(k3, res)
	if c.Len() != 3 {
		t.Errorf("re-Put grew the cache to %d entries", c.Len())
	}

	// Unbounded memory never evicts.
	u := NewMemory()
	for i := 0; i < 64; i++ {
		u.Put(hexKey(byte(i)), res)
	}
	if u.Len() != 64 || u.Health().Evictions != 0 {
		t.Errorf("unbounded tier evicted: len=%d evictions=%d", u.Len(), u.Health().Evictions)
	}
}

func TestDiskQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(rand.New(rand.NewSource(7)))
	key := hexKey(0x20)
	if err := d.Write(key, res); err != nil {
		t.Fatal(err)
	}
	overwrite(t, d, key, headerLen, []byte("not json"))

	if _, ok := d.Get(key); ok {
		t.Fatalf("corrupt record should miss")
	}
	if d.Health().Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", d.Health().Quarantined)
	}
	if _, ok := d.Locate(key); ok {
		t.Errorf("quarantined record still indexed")
	}
	// A second read misses without counting the same record again, and the
	// miss's rescan does not re-index it.
	if _, ok := d.Get(key); ok || d.Health().Quarantined != 1 {
		t.Errorf("re-read: hit %v, Quarantined = %d, want a miss and 1", ok, d.Health().Quarantined)
	}
	if d.Len() != 0 {
		t.Errorf("quarantined record still counted: Len = %d", d.Len())
	}

	// The key is writable and readable again.
	if err := d.Write(key, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("rewritten key should hit with the fresh result")
	}
	// A fresh Disk finds the corrupt record by its CRC as it scans, and the
	// rewritten record after it wins.
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Health().Quarantined != 1 {
		t.Errorf("fresh Disk: Quarantined = %d, want 1", fresh.Health().Quarantined)
	}
	if got, ok := fresh.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("fresh Disk should hit the rewritten record")
	}
}

func TestDiskDegradedAfterConsecutiveIOFailures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file in place of the store directory makes every rescan's
	// directory read fail with a non-ENOENT error, even when running as root
	// (chmod tricks do not).
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < DegradedThreshold; i++ {
		if h := d.Health(); h.Degraded {
			t.Fatalf("degraded after only %d failures", i)
		}
		if _, ok := d.Get(hexKey(0x30)); ok {
			t.Fatalf("unreadable store should miss")
		}
	}
	h := d.Health()
	if !h.Degraded || h.IOFailures != DegradedThreshold {
		t.Errorf("Health = %+v, want degraded with %d failures", h, DegradedThreshold)
	}
	if h.Tier != "disk" {
		t.Errorf("Tier = %q, want disk", h.Tier)
	}

	// With the directory back, a plain miss is not an I/O failure: it must
	// neither extend the run nor end it.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(hexKey(0x31)); ok {
		t.Fatalf("unknown key should miss")
	}
	if got := d.Health().IOFailures; got != DegradedThreshold {
		t.Errorf("plain miss changed the failure run to %d", got)
	}

	// One successful write recovers the tier.
	res := sampleResult(rand.New(rand.NewSource(8)))
	if err := d.Write(hexKey(0x32), res); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.Degraded || h.IOFailures != 0 {
		t.Errorf("successful write should reset the failure run: %+v", h)
	}
}

func TestOpenIgnoresNonSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	res := sampleResult(rand.New(rand.NewSource(9)))
	key := hexKey(0x40)
	enc, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// An entry of the old one-file-per-result layout, the temporary file a
	// crashed writer of that layout left, and an unrelated file.
	fanout := filepath.Join(dir, key[:2])
	if err := os.MkdirAll(fanout, 0o755); err != nil {
		t.Fatal(err)
	}
	planted := map[string][]byte{
		filepath.Join(fanout, key+".json"):     enc,
		filepath.Join(fanout, "stale.partial"): []byte("torn write"),
		filepath.Join(dir, "notes.txt"):        []byte("x"),
	}
	for path, data := range planted {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); ok {
		t.Errorf("an old-layout entry must not be read")
	}
	if h := d.Health(); d.Len() != 0 || h.Quarantined != 0 || h.IOFailures != 0 {
		t.Errorf("non-segment files were indexed or counted: Len = %d, %+v", d.Len(), h)
	}
	for path := range planted {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("Open touched %s: %v", path, err)
		}
	}
	if err := d.Write(key, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("the key should be writable beside the old tree")
	}
}

func TestOpenTiered(t *testing.T) {
	// A FILE as the parent path makes MkdirAll fail with ENOTDIR even as
	// root, so the disk tier cannot be created.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		dir     string
		memCap  int
		tiers   []string
		wantErr bool
	}{
		{"no dir", "", 0, []string{"memory"}, false},
		{"unopenable dir", filepath.Join(blocker, "store"), 0, []string{"memory"}, true},
		{"disk", t.TempDir(), 2, []string{"memory", "disk"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := OpenTiered(tc.dir, tc.memCap)
			if (err != nil) != tc.wantErr {
				t.Fatalf("OpenTiered error = %v, want error %v", err, tc.wantErr)
			}
			var tiers []string
			for _, h := range cache.Health() {
				tiers = append(tiers, h.Tier)
			}
			if !reflect.DeepEqual(tiers, tc.tiers) {
				t.Fatalf("tiers = %v, want %v", tiers, tc.tiers)
			}
			if cache.Degraded() {
				t.Errorf("freshly opened store should not be degraded")
			}
			res := sampleResult(rand.New(rand.NewSource(10)))
			key := hexKey(0x50)
			cache.Put(key, res)
			if got, ok := cache.Get(key); !ok || !reflect.DeepEqual(got, res) {
				t.Errorf("round trip through %v failed", tc.tiers)
			}
			if tc.memCap == 0 {
				return
			}
			// Fill the memory tier past memCap: key, the least recently
			// used entry, is the one evicted.
			mem := cache.tiers[0].(*Memory)
			for i := 1; i <= tc.memCap; i++ {
				cache.Put(hexKey(byte(0x50+i)), res)
			}
			if mem.Len() != tc.memCap {
				t.Errorf("memory tier holds %d entries, want memCap %d", mem.Len(), tc.memCap)
			}
			if _, ok := mem.Get(key); ok {
				t.Errorf("memory tier kept the LRU entry past memCap")
			}
			if _, ok := mem.Get(hexKey(byte(0x50 + tc.memCap))); !ok {
				t.Errorf("memory tier evicted the most recent entry")
			}
		})
	}
}

func TestDiskDefectMatrix(t *testing.T) {
	res := sampleResult(rand.New(rand.NewSource(11)))
	valid, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	wrongSchema := bytes.Replace(valid, []byte(`"schema":2`), []byte(`"schema":1`), 1)

	// Each case plants one segment file under key's name and reads key from
	// a freshly opened Disk. Framed records carry a valid CRC, so only the
	// decode check can reject them.
	cases := []struct {
		name       string
		seg        func(k [keyLen]byte) []byte // nil = plant a directory instead
		quarantine bool
	}{
		{"truncated envelope", func(k [keyLen]byte) []byte { return frame(k, valid[:len(valid)/2]) }, true},
		{"wrong schema", func(k [keyLen]byte) []byte { return frame(k, wrongSchema) }, true},
		{"malformed JSON", func(k [keyLen]byte) []byte { return frame(k, []byte("{]")) }, true},
		{"crc mismatch", func(k [keyLen]byte) []byte {
			rec := frame(k, valid)
			rec[8] ^= 1
			return rec
		}, true},
		{"empty file", func([keyLen]byte) []byte { return nil }, false},
		{"bad magic", func(k [keyLen]byte) []byte {
			rec := frame(k, valid)
			rec[0] ^= 1
			return rec
		}, false},
		{"zero length", func(k [keyLen]byte) []byte { return frame(k, nil) }, false},
		{"length past EOF", func(k [keyLen]byte) []byte { return frame(k, valid)[:headerLen+len(valid)-1] }, false},
		{"unreadable file", nil, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := hexKey(byte(0x60 + i))
			k, _ := parseKey(key)
			path := filepath.Join(dir, "0000000000000001"+segExt)
			if tc.seg == nil {
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, tc.seg(k), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get(key); ok {
				t.Fatalf("defective record should read as a miss")
			}
			want := int64(0)
			if tc.quarantine {
				want = 1
			}
			if d.Health().Quarantined != want {
				t.Errorf("Quarantined = %d, want %d", d.Health().Quarantined, want)
			}
			if d.Len() != 0 {
				t.Errorf("defective record still indexed: Len = %d", d.Len())
			}
			if got := d.Health().IOFailures; got != 0 {
				t.Errorf("a defective record counted as an I/O failure: %d", got)
			}
		})
	}

	// Short and invalid keys miss without touching the filesystem.
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64)} {
		if _, ok := d.Get(key); ok {
			t.Errorf("invalid key %q should miss", key)
		}
	}
	if got := d.Health().IOFailures; got != 0 {
		t.Errorf("invalid keys counted as I/O failures: %d", got)
	}
}

// overwrite writes b over key's record, at offset at within the record.
func overwrite(t *testing.T, d *Disk, key string, at int64, b []byte) {
	t.Helper()
	l, ok := d.Locate(key)
	if !ok {
		t.Fatalf("key %s is not indexed", key[:8])
	}
	f, err := os.OpenFile(l.Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, l.Offset+at); err != nil {
		t.Fatal(err)
	}
}

// writeAll writes one sample result per key through d.
func writeAll(t *testing.T, d *Disk, keys []string, seed int64) []sim.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Result, len(keys))
	for i, key := range keys {
		out[i] = sampleResult(rng)
		if err := d.Write(key, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// mustHit fails the test unless d holds want under key.
func mustHit(t *testing.T, d *Disk, key string, want sim.Result) {
	t.Helper()
	if got, ok := d.Get(key); !ok {
		t.Errorf("key %s should hit", key[:8])
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("key %s: wrong result", key[:8])
	}
}

func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{hexKey(0x70), hexKey(0x71), hexKey(0x72)}
	results := writeAll(t, d, keys, 12)
	// A writer killed mid-append: the last record loses its final bytes.
	l, _ := d.Locate(keys[2])
	if err := os.Truncate(l.Path, l.Offset+int64(l.Len)/2); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustHit(t, fresh, keys[0], results[0])
	mustHit(t, fresh, keys[1], results[1])
	if _, ok := fresh.Get(keys[2]); ok {
		t.Errorf("the torn record must read as a miss")
	}
	if h := fresh.Health(); h.Quarantined != 0 || h.IOFailures != 0 || h.Entries != 2 {
		t.Errorf("torn tail: %+v, want 2 entries and no quarantine or I/O failure", h)
	}

	// Writing the torn key again makes it hit, also from a fresh Disk.
	if err := fresh.Write(keys[2], results[2]); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		mustHit(t, again, key, results[i])
	}
}

func TestDiskFlippedPayloadByte(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{hexKey(0x80), hexKey(0x81), hexKey(0x82)}
	results := writeAll(t, d, keys, 13)
	l, _ := d.Locate(keys[1])
	f, err := os.OpenFile(l.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	// A letter of the last field name: the flipped envelope still decodes,
	// to a wrong result, so only the CRC can tell.
	at := l.Offset + int64(l.Len) - 10
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The Disk that wrote the record catches the flip on read, a fresh one
	// while scanning; either way records after it still hit.
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, disk := range map[string]*Disk{"writer": d, "fresh": fresh} {
		if _, ok := disk.Get(keys[1]); ok {
			t.Errorf("%s: the flipped record must miss", name)
		}
		if disk.Health().Quarantined != 1 {
			t.Errorf("%s: Quarantined = %d, want 1", name, disk.Health().Quarantined)
		}
		mustHit(t, disk, keys[0], results[0])
		mustHit(t, disk, keys[2], results[2])
	}
}

func TestDiskSeesOtherWritersWithoutReopen(t *testing.T) {
	dir := t.TempDir()
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(0x90)
	if _, ok := reader.Get(key); ok {
		t.Fatalf("empty store should miss")
	}
	res := writeAll(t, writer, []string{key}, 14)[0]
	// The reader's miss rescans and finds the writer's new segment ...
	mustHit(t, reader, key, res)
	// ... and later records in a segment it already scanned.
	key2 := hexKey(0x91)
	res2 := writeAll(t, writer, []string{key2}, 15)[0]
	mustHit(t, reader, key2, res2)
	if n := reader.Health().Entries; n != 2 {
		t.Errorf("reader indexes %d entries, want 2", n)
	}
}

func TestDiskLastWriterWinsAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	key := hexKey(0xa0)
	var last sim.Result
	for i := int64(0); i < 3; i++ {
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		last = writeAll(t, d, []string{key}, 16+i)[0]
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d segments, want one per writing Disk", len(entries))
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustHit(t, fresh, key, last)

	// A newer record that fails its CRC does not shadow the valid one.
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, d, []string{key}, 19)
	overwrite(t, d, key, headerLen, []byte("{]"))
	fresh, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustHit(t, fresh, key, last)
	if fresh.Health().Quarantined != 1 {
		t.Errorf("Quarantined = %d, want the one CRC-bad record", fresh.Health().Quarantined)
	}
}

func TestDiskConcurrentWritersShareDirectory(t *testing.T) {
	dir := t.TempDir()
	disks := make([]*Disk, 2)
	for i := range disks {
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	const perWriter = 40
	res := sampleResult(rand.New(rand.NewSource(17)))
	keyOf := func(writer, i int) string { return hexKey(byte(writer*perWriter + i)) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, other := disks[w%2], (w+1)%4
			for i := 0; i < perWriter; i++ {
				d.Put(keyOf(w, i), res)
				// Any hit on a key another goroutine is writing must be
				// the complete result, never a torn one.
				if got, ok := d.Get(keyOf(other, i)); ok && !reflect.DeepEqual(got, res) {
					t.Errorf("concurrent read returned a wrong result")
				}
			}
		}(w)
	}
	wg.Wait()
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(disks, fresh) {
		for w := 0; w < 4; w++ {
			for i := 0; i < perWriter; i++ {
				mustHit(t, d, keyOf(w, i), res)
			}
		}
		if h := d.Health(); h.Entries != 4*perWriter || h.Quarantined != 0 || h.IOFailures != 0 {
			t.Errorf("after concurrent writes: %+v, want %d entries", h, 4*perWriter)
		}
	}
}

// FuzzDiskOpen writes the fuzz input as a segment file and opens the store
// over it. Open, Len and Get of every indexed key must not panic or hang, and
// every hit must re-encode to exactly the envelope bytes stored for it. The
// seed corpus (testdata/fuzz/FuzzDiskOpen) holds a valid two-record segment,
// one with a torn tail and one with a flipped CRC.
func FuzzDiskOpen(f *testing.F) {
	// One directory serves every input: Open only reads, so it holds just
	// the segment file each input overwrites.
	dir := f.TempDir()
	path := filepath.Join(dir, "0000000000000001"+segExt)
	f.Fuzz(func(t *testing.T, seg []byte) {
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := d.Len()
		d.mu.Lock()
		var keys []string
		for k := range d.index {
			keys = append(keys, hex.EncodeToString(k[:]))
		}
		d.mu.Unlock()
		if len(keys) != n {
			t.Fatalf("Len = %d, index holds %d keys", n, len(keys))
		}
		for _, key := range keys {
			l, ok := d.Locate(key)
			if !ok {
				t.Fatalf("indexed key %s cannot be located", key[:8])
			}
			res, ok := d.Get(key)
			if !ok {
				continue
			}
			enc, err := Encode(res)
			if err != nil {
				t.Fatal(err)
			}
			if stored := seg[l.Offset+headerLen : l.Offset+int64(l.Len)]; !bytes.Equal(enc, stored) {
				t.Fatalf("hit re-encodes differently:\n%s\nstored:\n%s", enc, stored)
			}
		}
	})
}

// randomize sets every exported field reachable from v to a value drawn from
// rng: integers and floats across their whole range of magnitudes and
// signs, slices of up to three elements, and strings that are either s (the
// fuzzer's own bytes, escapes and invalid UTF-8 included) or random bytes.
// Fields added to the key structs later are covered without touching this.
func randomize(rng *rand.Rand, v reflect.Value, s string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				randomize(rng, v.Field(i), s)
			}
		}
	case reflect.Slice:
		n := rng.Intn(4)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			randomize(rng, v.Index(i), s)
		}
	case reflect.String:
		if rng.Intn(2) == 0 {
			v.SetString(s)
		} else {
			b := make([]byte, rng.Intn(8))
			rng.Read(b)
			v.SetString(string(b))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt((rng.Int63() >> rng.Intn(63)) * int64(1-2*rng.Intn(2)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	}
}

// FuzzKeyMatchesOracle checks canonicalize against the canonicalJSON
// reference over randomized key material: a GPUConfig, Options and either a
// synthetic Profile or a phased workload of up to three phases, all derived
// from the fuzzer's seed and string. The canonical bytes must be identical,
// and Key must hash exactly them. The seed corpus
// (testdata/fuzz/FuzzKeyMatchesOracle) holds plain ASCII, HTML-escaped,
// non-ASCII and invalid-UTF-8 strings.
func FuzzKeyMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, s string) {
		rng := rand.New(rand.NewSource(seed))
		var gpu config.GPUConfig
		var opts sim.Options
		var prof trace.Profile
		randomize(rng, reflect.ValueOf(&gpu).Elem(), s)
		randomize(rng, reflect.ValueOf(&opts).Elem(), s)
		randomize(rng, reflect.ValueOf(&prof).Elem(), s)
		var w trace.Workload = trace.Synthetic(prof)
		if rng.Intn(2) == 0 {
			var phases []trace.Phase
			randomize(rng, reflect.ValueOf(&phases).Elem(), s)
			w = trace.NewPhased(s, phases)
		}
		material, err := w.KeyMaterial()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(keyMaterial{Schema: SchemaVersion, GPU: gpu.WithMemDefaults(), Profile: material, Options: opts.WithDefaults()})
		if err != nil {
			t.Fatal(err)
		}
		want, err := canonicalJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := canonicalize(raw)
		if err != nil {
			t.Fatalf("canonicalize: %v\n%s", err, raw)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ from the reference:\n got %s\nwant %s", got, want)
		}
		key, err := Key(gpu, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(want); key != hex.EncodeToString(sum[:]) {
			t.Fatalf("Key %s does not hash the reference bytes", key)
		}
	})
}

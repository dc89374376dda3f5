package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drive pulls n instructions from a source with the reference warp
// interleaving and returns them.
func drive(src Source, n int) []Instruction {
	out := make([]Instruction, n)
	for i := range out {
		out[i] = src.Next(i % referenceWarps)
	}
	return out
}

// mustSource builds the workload's source for one SM or fails the test.
func mustSource(t *testing.T, w Workload, sm int, seed uint64) Source {
	t.Helper()
	src, err := w.NewSource(sm, seed)
	if err != nil {
		t.Fatalf("NewSource(%d): %v", sm, err)
	}
	return src
}

// customProfile is a valid non-builtin profile for tests.
func customProfile(name string) Profile {
	return Profile{
		Name: name, Suite: "Custom", Description: "test profile",
		APKI: 50, Mix: ReadLevelMix{WM: 0.25, ReadIntensive: 0.15, WORM: 0.45, WORO: 0.15},
		WorkingSetBlocks: 256, Irregular: 0.5, WORMReuse: 3,
	}
}

// TestSourceDeterminism pins the contract every store key depends on: the
// same (workload, SM, seed) triple yields a byte-identical instruction
// sequence across two independently constructed sources — for synthetic and
// phased workloads.
func TestSourceDeterminism(t *testing.T) {
	atax, _ := ProfileByName("ATAX")
	gemm, _ := ProfileByName("GEMM")
	synthetic := Synthetic(atax)
	phased := NewPhased("det-phased", []Phase{
		{Profile: atax, Instructions: 700},
		{Profile: gemm, Instructions: 500},
		{Profile: atax},
	})

	const n = 5000
	for _, tc := range []struct {
		label string
		w     Workload
	}{
		{"synthetic", synthetic},
		{"phased", phased},
	} {
		for _, sm := range []int{0, 3} {
			a := drive(mustSource(t, tc.w, sm, 42), n)
			b := drive(mustSource(t, tc.w, sm, 42), n)
			if !instructionsEqual(a, b) {
				t.Errorf("%s: SM %d: two sources over the same (workload, SM, seed) diverged", tc.label, sm)
			}
			// A different seed or SM must (overwhelmingly) change the stream.
			c := drive(mustSource(t, tc.w, sm, 43), n)
			if instructionsEqual(a, c) {
				t.Errorf("%s: SM %d: seed change did not change the stream", tc.label, sm)
			}
		}
	}

}

func instructionsEqual(a, b []Instruction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPhasedSourceSwitchesAtBudget(t *testing.T) {
	atax, _ := ProfileByName("ATAX")
	pathf, _ := ProfileByName("pathf")
	w := NewPhased("switch-test", []Phase{
		{Profile: pathf, Instructions: 1000}, // barely touches memory
		{Profile: atax},                      // memory-bound
	})
	src := mustSource(t, w, 0, 7)
	ps := src.(*phasedSource)
	drive(src, 1000)
	if ps.cur != 0 {
		t.Fatalf("still inside phase 0's budget, got phase %d", ps.cur)
	}
	drive(src, 1)
	if ps.cur != 1 {
		t.Fatalf("budget spent, expected phase 1, got %d", ps.cur)
	}
	// The phase switch must be visible in the stream itself: ATAX is far
	// more memory-intensive than pathf.
	mem := 0
	for _, ins := range drive(src, 20000) {
		if ins.IsMem {
			mem++
		}
	}
	if phase1Frac := float64(mem) / 20000; phase1Frac < 0.3 {
		t.Errorf("phase 1 (ATAX) should be memory-bound, mem fraction %.3f", phase1Frac)
	}
}

func TestPhasedValidate(t *testing.T) {
	atax, _ := ProfileByName("ATAX")
	bad := atax
	bad.APKI = 0
	cases := []struct {
		label string
		w     *PhasedWorkload
	}{
		{"no name", NewPhased("", []Phase{{Profile: atax}})},
		{"no phases", NewPhased("x", nil)},
		{"invalid phase profile", NewPhased("x", []Phase{{Profile: bad}})},
		{"zero budget before last", NewPhased("x", []Phase{{Profile: atax}, {Profile: atax, Instructions: 10}})},
	}
	for _, tc := range cases {
		if err := tc.w.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", tc.label)
		}
	}
	ok := NewPhased("x", []Phase{{Profile: atax, Instructions: 10}, {Profile: atax}})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid phased workload rejected: %v", err)
	}
}

func TestRegistryValidatesAndRejectsDuplicates(t *testing.T) {
	// Invalid profiles are rejected at registration.
	bad := customProfile("registry-bad")
	bad.WORMReuse = 0
	if err := RegisterProfile(bad); err == nil {
		t.Errorf("invalid profile must not register")
	}
	if _, ok := Lookup("registry-bad"); ok {
		t.Errorf("failed registration must not leave an entry behind")
	}

	// First registration succeeds; identical re-registration is a no-op;
	// conflicting redefinition is an error.
	p := customProfile("registry-dup")
	if err := RegisterProfile(p); err != nil {
		t.Fatal(err)
	}
	if err := RegisterProfile(p); err != nil {
		t.Errorf("identical re-registration should be idempotent: %v", err)
	}
	changed := p
	changed.APKI = 99
	if err := RegisterProfile(changed); err == nil {
		t.Errorf("conflicting redefinition must fail")
	}
	// Builtin names are equally protected.
	atax, _ := ProfileByName("ATAX")
	atax.APKI = 1
	if err := RegisterProfile(atax); err == nil {
		t.Errorf("redefining a builtin must fail")
	}
	got, ok := ProfileByName("registry-dup")
	if !ok || got.APKI != p.APKI {
		t.Errorf("registry returned the wrong profile: %+v", got)
	}
}

func TestRegistryViews(t *testing.T) {
	if got := len(BuiltinNames()); got != 21 {
		t.Errorf("BuiltinNames() should list the 21 paper benchmarks, got %d", got)
	}
	atax, _ := ProfileByName("ATAX")
	ph := NewPhased("views-phased", []Phase{{Profile: atax}})
	if err := Register(ph); err != nil {
		t.Fatal(err)
	}
	if IsBuiltin("views-phased") || !IsBuiltin("ATAX") {
		t.Errorf("IsBuiltin misclassifies")
	}
	// Phased workloads appear in WorkloadNames/Lookup but not in the
	// profile views.
	if _, ok := ProfileByName("views-phased"); ok {
		t.Errorf("phased workload must not appear as a profile")
	}
	if _, err := LookupWorkload("views-phased"); err != nil {
		t.Errorf("phased workload must resolve by name: %v", err)
	}
	found := false
	for _, n := range WorkloadNames() {
		if n == "views-phased" {
			found = true
		}
	}
	if !found {
		t.Errorf("WorkloadNames must include registered phased workloads")
	}
	for _, n := range Names() {
		if n == "views-phased" {
			t.Errorf("Names (profile view) must not include phased workloads")
		}
	}
	if _, err := LookupWorkload("definitely-not-registered"); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown names must fail with the registry's error, got %v", err)
	}
}

func TestWorkloadFileRegisters(t *testing.T) {
	data := []byte(`{
		"profiles": [
			{"name": "file-ml", "suite": "ML", "description": "write-heavy",
			 "apki": 120, "mix": {"wm": 0.35, "readIntensive": 0.25, "worm": 0.3, "woro": 0.1},
			 "workingSetBlocks": 420, "irregular": 0.4, "wormReuse": 3}
		],
		"phased": [
			{"name": "file-train", "description": "gather then GEMM",
			 "phases": [{"profile": "file-ml", "instructions": 2000}, {"profile": "GEMM"}]}
		]
	}`)
	f, err := ParseWorkloads(data)
	if err != nil {
		t.Fatal(err)
	}
	names, err := f.Register()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "file-ml" || names[1] != "file-train" {
		t.Errorf("registered names = %v", names)
	}
	p, ok := ProfileByName("file-ml")
	if !ok || p.APKI != 120 || p.Suite != "ML" || p.Mix.WM != 0.35 {
		t.Errorf("file profile did not round-trip: %+v", p)
	}
	w, _ := Lookup("file-train")
	ph, ok := w.(*PhasedWorkload)
	if !ok || len(ph.Phases) != 2 || ph.Phases[0].Profile.Name != "file-ml" || ph.Phases[1].Profile.Name != "GEMM" {
		t.Errorf("phased workload did not resolve: %+v", w)
	}

	// A suite-less profile defaults to "Custom".
	f2, _ := ParseWorkloads([]byte(`{"profiles":[{"name":"file-nosuite","apki":10,
		"mix":{"wm":0.2,"readIntensive":0.2,"worm":0.4,"woro":0.2},
		"workingSetBlocks":64,"irregular":0,"wormReuse":2}]}`))
	if _, err := f2.Register(); err != nil {
		t.Fatal(err)
	}
	if p, _ := ProfileByName("file-nosuite"); p.Suite != "Custom" {
		t.Errorf("suite should default to Custom, got %q", p.Suite)
	}
}

func TestWorkloadFileRejectsDefects(t *testing.T) {
	cases := []struct {
		label string
		data  string
	}{
		{"unknown field", `{"profiles":[{"name":"x","apki":10,"mix":{"wm":1},"workingSetBlocks":1,"wormReuse":1,"typoKnob":5}]}`},
		{"invalid mix", `{"profiles":[{"name":"x","apki":10,"mix":{"wm":0.5},"workingSetBlocks":10,"wormReuse":2}]}`},
		{"unknown phase profile", `{"phased":[{"name":"x","phases":[{"profile":"no-such-profile"}]}]}`},
		{"malformed json", `{"profiles":`},
		{"trailing data", `{"profiles":[{"name":"trailing-a","apki":10,"mix":{"wm":1},"workingSetBlocks":1,"wormReuse":1}]} {"profiles":[{"name":"trailing-b"}]} garbage`},
	}
	for _, tc := range cases {
		f, err := ParseWorkloads([]byte(tc.data))
		if err != nil {
			continue // parse-level rejection is fine
		}
		if _, err := f.Register(); err == nil {
			t.Errorf("%s: expected an error", tc.label)
		}
	}
	// Trailing whitespace after the document is not trailing data.
	if _, err := ParseWorkloads([]byte(`{"profiles":[]}` + "\n\t \n")); err != nil {
		t.Errorf("a document with a trailing newline: %v", err)
	}
}

func TestLoadWorkloadFileFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	content := `{"profiles":[{"name":"disk-prof","apki":20,
		"mix":{"wm":0.1,"readIntensive":0.2,"worm":0.5,"woro":0.2},
		"workingSetBlocks":128,"irregular":0.2,"wormReuse":4}]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := LoadWorkloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "disk-prof" {
		t.Errorf("names = %v", names)
	}
	// Re-loading the same file is idempotent.
	if _, err := LoadWorkloadFile(path); err != nil {
		t.Errorf("re-loading an identical file should succeed: %v", err)
	}
	if _, err := LoadWorkloadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Errorf("missing file must error")
	}
}

func TestWorkloadKeyMaterials(t *testing.T) {
	atax, _ := ProfileByName("ATAX")

	// Synthetic key material is exactly the Profile encoding (the property
	// that keeps every pre-redesign store entry valid).
	m, err := Synthetic(atax).KeyMaterial()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(atax)
	if !bytes.Equal(m, want) {
		t.Errorf("synthetic key material must be the raw Profile encoding:\n%s\n%s", m, want)
	}

	// Phased material is disjoint from any profile encoding: it carries a
	// "kind" discriminator no Profile has.
	pm, err := NewPhased("km-phased", []Phase{{Profile: atax}}).KeyMaterial()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(pm, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["kind"] != "phased" {
		t.Errorf("phased key material must carry kind=\"phased\": %s", pm)
	}
}

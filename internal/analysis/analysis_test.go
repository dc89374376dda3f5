package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture tests are analysistest-style: each package under testdata/src
// carries `// want \`regexp\`` comments on the lines where an analyzer must
// report, and the test fails on any unmatched want or unexpected diagnostic.
// The fixtures double as the proof that the CI gate actually fires: every
// analyzer has at least one deliberately seeded violation.

var wantRE = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture type-checks one testdata fixture — the named package and every
// subdirectory package it contains (the `...` wildcard does not expand under
// testdata, so the directories are enumerated explicitly) — and returns its
// program plus the parsed want expectations from every .go file in the tree.
func loadFixture(t *testing.T, name string) (*Program, []*expectation) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgDirs := make(map[string]bool)
	var goFiles []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			pkgDirs[filepath.Dir(path)] = true
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for pd := range pkgDirs {
		patterns = append(patterns, "./"+filepath.ToSlash(pd))
	}
	sort.Strings(patterns)
	prog, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var wants []*expectation
	for _, path := range goFiles {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, line, err)
			}
			wants = append(wants, &expectation{file: abs, line: line, re: re})
		}
		f.Close()
	}
	return prog, wants
}

// runFixture executes one analyzer over a fixture and diffs the findings
// against the want comments.
func runFixture(t *testing.T, analyzerName, fixture string) {
	t.Helper()
	var analyzer *Analyzer
	for _, a := range All() {
		if a.Name == analyzerName {
			analyzer = a
		}
	}
	if analyzer == nil {
		t.Fatalf("no analyzer %q", analyzerName)
	}
	prog, wants := loadFixture(t, fixture)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments: it would not prove the gate fires", fixture)
	}
	diags, err := Run(prog, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzerName, fixture, err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && sameFile(w.file, d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func sameFile(a, b string) bool {
	if a == b {
		return true
	}
	ra, err1 := filepath.EvalSymlinks(a)
	rb, err2 := filepath.EvalSymlinks(b)
	return err1 == nil && err2 == nil && ra == rb
}

func TestDetmapFixture(t *testing.T)    { runFixture(t, "detmap", "detmapfix") }
func TestCtxflowFixture(t *testing.T)   { runFixture(t, "ctxflow", "ctxflowfix") }
func TestLockorderFixture(t *testing.T) { runFixture(t, "lockorder", "lockorderfix") }

// TestRepoIsClean runs the full suite over the real tree — the same gate CI
// enforces with `go run ./cmd/fuselint ./...`. Any regression against the
// repo's invariants (a new map-ordered loop, a wall-clock read in the
// simulation core, an uncancellable wait or a lock held across blocking work
// in the serving layer) fails this test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load(".", "fuse/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); run `go run ./cmd/fuselint ./...` locally", len(diags))
	}
}

// scopexfix is the directive-scoping fixture: lib declares one trailing
// noctx directive, the root package none.
const (
	scopeRoot = "fuse/internal/analysis/testdata/src/scopexfix"
	scopeLib  = scopeRoot + "/lib"
)

// TestDirectiveScoping pins the trailing-vs-standalone attribution rule: a
// trailing directive governs only its own line, never the next one (the loop
// body in lib.Drain must not inherit the noctx on its loop header).
func TestDirectiveScoping(t *testing.T) {
	prog, _ := loadFixture(t, "scopexfix")
	pkg, ok := prog.Lookup(scopeLib)
	if !ok {
		t.Fatalf("fixture package %s not loaded", scopeLib)
	}
	f := pkg.Files[0]
	var trailing []Directive
	for _, d := range pkg.fileDirectives(prog.Fset, f) {
		if d.Name == "noctx" {
			trailing = append(trailing, d)
		}
	}
	if len(trailing) != 1 || trailing[0].Standalone {
		t.Fatalf("lib declares one trailing noctx directive, scan found %+v", trailing)
	}
	line := trailing[0].Line
	if _, ok := pkg.directiveAt(prog.Fset, f, line, "noctx"); !ok {
		t.Errorf("a trailing directive must govern its own line %d", line)
	}
	if d, ok := pkg.directiveAt(prog.Fset, f, line+1, "noctx"); ok {
		t.Errorf("the trailing directive on line %d leaked onto line %d", d.Line, line+1)
	}
}

// TestDirectiveScopingAcrossPackages pins that directives belong to the
// package whose file declares them: the noctx annotation in the scopexfix
// fixture lives on lib.Drain's loop, so it must be visible when scanning lib
// and invisible from the root fixture package, whose own loop of the same
// shape calls Drain — a leak in either direction would let one package
// annotate away another package's violations.
func TestDirectiveScopingAcrossPackages(t *testing.T) {
	prog, _ := loadFixture(t, "scopexfix")
	noctx := make(map[string]int)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range pkg.fileDirectives(prog.Fset, f) {
				if d.Name == "noctx" {
					noctx[pkg.Path]++
				}
			}
		}
	}
	if noctx[scopeLib] != 1 {
		t.Errorf("lib declares 1 noctx directive, scan found %d", noctx[scopeLib])
	}
	if noctx[scopeRoot] != 0 {
		t.Errorf("the root fixture package declares no noctx directives, scan found %d — a directive leaked across the package boundary", noctx[scopeRoot])
	}
}

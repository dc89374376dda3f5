package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The fixture test is analysistest-style: lockorderfix under testdata/src
// carries `// want \`regexp\`` comments on the lines where lockorder must
// report, and the test fails on any unmatched want or unexpected diagnostic.
// The fixture doubles as the proof that the CI gate actually fires: it
// seeds a violation of each of lockorder's rules.

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

// TestLockorderFixture runs lockorder over its fixture and diffs the
// findings against the want comments.
func TestLockorderFixture(t *testing.T) {
	prog, wants := loadFixture(t, "lockorderfix")
	if len(wants) == 0 {
		t.Fatal("the fixture has no want comments: it would not prove the gate fires")
	}
	for _, d := range Lockorder(prog) {
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

// TestRepoIsClean runs lockorder over the real tree — the same gate CI
// enforces with `go run ./cmd/fuselint ./...`. A lock left unpaired, a lock
// held across blocking work or a channel operation, or two mutexes taken in
// both orders anywhere in the serving layer fails this test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load(".", "fuse/...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Lockorder(prog)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); run `go run ./cmd/fuselint ./...` locally", len(diags))
	}
}

// scopexfix is the directive-scoping fixture: lib declares one trailing
// blocking directive, the root package none.
const (
	scopeRoot = "fuse/internal/analysis/testdata/src/scopexfix"
	scopeLib  = scopeRoot + "/lib"
)

// TestDirectiveScoping pins the trailing-vs-standalone attribution rule: a
// trailing directive governs only its own line, never the next one (the body
// of lib.Drain must not inherit the blocking on its declaration line).
func TestDirectiveScoping(t *testing.T) {
	prog, _ := loadFixture(t, "scopexfix")
	i := slices.IndexFunc(prog.Packages, func(p *Package) bool { return p.Path == scopeLib })
	if i < 0 {
		t.Fatalf("fixture package %s not loaded", scopeLib)
	}
	pkg := prog.Packages[i]
	f := pkg.Files[0]
	var trailing []Directive
	for _, d := range pkg.fileDirectives(prog.Fset, f) {
		if d.Name == "blocking" {
			trailing = append(trailing, d)
		}
	}
	if len(trailing) != 1 || trailing[0].Standalone {
		t.Fatalf("lib declares one trailing blocking directive, scan found %+v", trailing)
	}
	line := trailing[0].Line
	if _, ok := pkg.directiveAt(prog.Fset, f, line, "blocking"); !ok {
		t.Errorf("a trailing directive must govern its own line %d", line)
	}
	if d, ok := pkg.directiveAt(prog.Fset, f, line+1, "blocking"); ok {
		t.Errorf("the trailing directive on line %d leaked onto line %d", d.Line, line+1)
	}
}

// TestDirectiveScopingAcrossPackages pins that directives belong to the
// package whose file declares them: the blocking annotation in the scopexfix
// fixture lives on lib.Drain's declaration, so it must be visible when
// scanning lib and invisible from the root fixture package, whose own
// function of the same shape calls Drain — a leak in either direction would
// let one package annotate another package's functions.
func TestDirectiveScopingAcrossPackages(t *testing.T) {
	prog, _ := loadFixture(t, "scopexfix")
	blocking := make(map[string]int)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range pkg.fileDirectives(prog.Fset, f) {
				if d.Name == "blocking" {
					blocking[pkg.Path]++
				}
			}
		}
	}
	if blocking[scopeLib] != 1 {
		t.Errorf("lib declares 1 blocking directive, scan found %d", blocking[scopeLib])
	}
	if blocking[scopeRoot] != 0 {
		t.Errorf("the root fixture package declares no blocking directives, scan found %d — a directive leaked across the package boundary", blocking[scopeRoot])
	}
}

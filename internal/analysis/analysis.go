// Package analysis is fuselint's static-analysis suite: a small, dependency-
// free framework in the spirit of golang.org/x/tools/go/analysis (which is
// intentionally not imported — the module has no third-party dependencies)
// plus the three analyzers that pin this repository's determinism and
// serving-layer discipline at compile time:
//
//   - detmap — determinism: no map-ordered iteration, wall clocks, global
//     randomness or environment reads on any path that can reach simulation
//     output (see detmap.go);
//   - ctxflow — cancellation discipline in the serving layer: contexts are
//     threaded to <Name>Context siblings, no bare sleeps, channel operations
//     guarded by ctx.Done() selects, handlers derive from r.Context() (see
//     ctxflow.go);
//   - lockorder — mutex discipline in the serving layer: unlock pairing, no
//     blocking work under a held lock, one global acquisition order (see
//     lockorder.go).
//
// Store-key completeness and the simulator's allocation budget are held by
// tests, not analyzers: TestKeyDeterministicAndSensitive (internal/store)
// and TestResultDigestsPinned (internal/sim).
//
// The analyzers are annotation-driven. The directives (all of the form
// "//fuselint:<name> [args]") are documented in the repository README under
// "Invariants & annotations".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is one loaded, type-checked set of packages — the unit a fuselint
// run analyses.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// State carries per-analyzer facts from the per-package Run passes to
	// the program-wide Finish pass, keyed by analyzer name.
	State map[string]any

	byPath map[string]*Package
}

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives map[string][]Directive // filename -> directives, lazily built
}

// Lookup returns the loaded package with the given import path, if any.
func (p *Program) Lookup(path string) (*Package, bool) {
	pkg, ok := p.byPath[path]
	return pkg, ok
}

// Analyzer is one fuselint check. Run is invoked once per loaded package;
// Finish, when non-nil, once per program after every Run (cross-package and
// program-wide checks — e.g. lockorder's acquisition order — live there).
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass) error
	Finish func(*Program, func(Diagnostic)) error
}

// Pass hands one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	report   func(Diagnostic)
}

// Diagnostic is one finding, with a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package of the program and returns
// the findings sorted by position. The error is reserved for analyzer
// failures (a broken pass), not findings.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		if err := a.Finish(prog, func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full fuselint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detmap, Ctxflow, Lockorder}
}

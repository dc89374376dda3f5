// Package analysis is fuselint's static check: a small, dependency-free
// loader in the spirit of golang.org/x/tools/go/analysis (which is
// intentionally not imported — the module has no third-party dependencies)
// plus lockorder, the one analyzer, which pins mutex discipline in the
// serving layer: unlock pairing, no blocking work under a held lock, one
// global acquisition order (see lockorder.go).
//
// Determinism and cancellation are held by behavioural tests, not
// analyzers: TestResultDigestsPinned and TestSimulationHasNoHiddenInputs
// (internal/sim), the byte-identical figure tests, and the cancellation
// tests of the engine, the cluster worker and fuseserve. Store-key
// completeness is held by TestKeyDeterministicAndSensitive (internal/store).
//
// lockorder's one directive, "//fuselint:blocking <reason>", is documented
// in the repository README under "Invariants & annotations".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Program is one loaded, type-checked set of packages — the unit a fuselint
// run analyses.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	Path  string
	Files []*ast.File
	Info  *types.Info

	directives map[string][]Directive // filename -> directives, lazily built
}

// Diagnostic is one finding, with a resolved source position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String renders the conventional file:line:col: lockorder: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: lockorder: %s", d.Pos, d.Message)
}

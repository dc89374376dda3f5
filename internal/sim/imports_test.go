package sim

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulationHasNoHiddenInputs pins that a result is a function of its
// (config, workload, options) and nothing else: no package in the
// simulator's import closure reads a clock or a global random generator, and
// the only use of os is trace's os.ReadFile of a workload file. Map-ordered
// loops that could reach output are held by TestResultDigestsPinned and the
// byte-identical figure tests instead.
func TestSimulationHasNoHiddenInputs(t *testing.T) {
	const module, trace = "fuse/", "fuse/internal/trace"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	queue := []string{"fuse/internal/sim"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		dir := filepath.Join(root, strings.TrimPrefix(path, module))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			switch {
			case strings.HasPrefix(imp, module):
				queue = append(queue, imp)
			case imp == "time" || imp == "math/rand" || imp == "math/rand/v2" || (imp == "os" && path != trace):
				t.Errorf("%s imports %s: simulation results must not depend on it", path, imp)
			}
		}
		if path != trace {
			continue
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" && sel.Sel.Name != "ReadFile" {
						t.Errorf("%s/%s uses os.%s: trace may only read a workload file", path, name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

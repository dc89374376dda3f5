package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader builds a type-checked Program from `go list` output using only
// the standard library: `go list -deps -export` compiles every dependency and
// reports the export-data file of each package, so the target packages can be
// parsed from source and type-checked against compiled import data without
// golang.org/x/tools (which this module deliberately does not depend on).

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct {
		Err string
	}
}

// Load lists the packages matching the patterns (resolved relative to dir),
// parses the non-dependency ones from source with comments, and type-checks
// them against the export data `go list -export` produced. Test files are not
// part of `go list`'s GoFiles, so lockorder sees exactly the shipping code.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, append([]string{
		"-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error",
	}, patterns...)...)
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: token.NewFileSet()}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})

	for _, p := range pkgs {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		pkg := &Package{Path: p.ImportPath}
		for _, name := range p.GoFiles {
			filename := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(prog.Fset, filename, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, prog.Fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %s", strings.Join(patterns, " "))
	}
	return prog, nil
}

// goList runs `go list args...` in dir and decodes its JSON output.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
}

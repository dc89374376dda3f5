package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detmap pins the repository's determinism guarantee: byte-identical figure
// tables, store keys and traces for every engine, worker count and host. Two
// rules:
//
//  1. Everywhere: `range` over a map is flagged — Go randomises map iteration
//     order, so any map-ordered loop that can reach output, counters or event
//     submission is a nondeterminism bug. A loop is accepted when the
//     collected keys are demonstrably sorted afterwards in the same block
//     (e.g. sort.Strings or slices.Sort), or when it carries a justified
//     `//fuselint:ordered <reason>` directive (e.g. an order-insensitive
//     reduction such as a max, or writes to index-addressed slots).
//
//  2. In the simulation core (every fuse/internal/... package): calls to
//     time.Now/Since/Until, the global math/rand generators and
//     os.Getenv/Environ are flagged unconditionally — simulation results
//     must be a function of (config, workload, options) and nothing else.
//     The command-line front ends (cmd/..., examples/...) may read clocks
//     for progress lines; the core may not.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc:  "flags nondeterministic map iteration and wall-clock/random/env reads in the simulation core",
	Run:  runDetmap,
}

// detCoreScope reports whether a package's import path is simulation core:
// everything under internal/ of the fuse module. The analysis package itself
// is exempt — it shells out to the go tool and is not part of any simulation
// path — but its testdata fixtures are not, so they can exercise the rule.
func detCoreScope(path string) bool {
	if strings.Contains(path, "internal/analysis") && !strings.Contains(path, "testdata") {
		return false
	}
	return strings.Contains(path, "internal/")
}

func runDetmap(pass *Pass) error {
	info := pass.Pkg.Info
	core := detCoreScope(pass.Pkg.Path)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			case *ast.CallExpr:
				if core {
					checkNondetCall(pass, info, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags `for ... := range m` when m is map-typed, unless the
// loop is justified or feeds a sort.
func checkMapRange(pass *Pass, f *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	line := pass.Prog.Fset.Position(rng.Pos()).Line
	if d, ok := pass.Pkg.directiveAt(pass.Prog.Fset, f, line, "ordered"); ok {
		if d.Args == "" {
			pass.Reportf(rng.Pos(), "//fuselint:ordered needs a justification (why is map order harmless here?)")
		}
		return
	}
	if sortedAfter(pass, f, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "iteration over map %s has nondeterministic order; sort the collected keys, restructure, or annotate //fuselint:ordered <reason>",
		exprString(rng.X))
}

// sortedAfter recognises the collect-then-sort idiom: the range body only
// grows slice variables (v = append(v, ...)), and a later statement in the
// same enclosing block sorts one of those variables (sort.Slice, sort.Strings,
// sort.Ints, slices.Sort, slices.SortFunc, ...). Map order then cannot be
// observed.
func sortedAfter(pass *Pass, f *ast.File, rng *ast.RangeStmt) bool {
	info := pass.Pkg.Info
	// Collect the slice variables the loop appends to; bail out if the body
	// does anything other than append-to-slice assignments.
	appended := make(map[types.Object]bool)
	clean := true
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			clean = false
			break
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			clean = false
			break
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			clean = false
			break
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			clean = false
			break
		}
		if obj := info.ObjectOf(lhs); obj != nil {
			appended[obj] = true
		}
	}
	if !clean || len(appended) == 0 {
		return false
	}
	// Find the statement list holding the range and scan what follows it.
	block := enclosingBlock(f, rng)
	if block == nil {
		return false
	}
	seen := false
	for _, stmt := range block {
		if !seen {
			if containsNode(stmt, rng) {
				seen = true
			}
			continue
		}
		if callsSortOn(info, stmt, appended) {
			return true
		}
	}
	return false
}

// enclosingBlock returns the statement list directly containing the node.
func enclosingBlock(f *ast.File, target ast.Node) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for _, stmt := range list {
			if stmt == target {
				out = list
				return false
			}
		}
		return true
	})
	return out
}

func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// callsSortOn reports whether the statement calls a recognised sort function
// on one of the given variables.
func callsSortOn(info *types.Info, stmt ast.Stmt, vars map[types.Object]bool) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.ObjectOf(pkgID).(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
	default:
		return false
	}
	if !strings.HasPrefix(sel.Sel.Name, "Sort") &&
		!strings.HasPrefix(sel.Sel.Name, "Slice") &&
		sel.Sel.Name != "Strings" && sel.Sel.Name != "Ints" && sel.Sel.Name != "Float64s" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	return vars[info.ObjectOf(arg)]
}

// nondetFuncs lists the forbidden calls per package path. For math/rand (v1
// and v2) only the global, process-seeded entry points are forbidden —
// rand.New with an explicit seeded source is deterministic and allowed.
var nondetAllowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func checkNondetCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if what, why, ok := nondetCall(info, call); ok {
		pass.Reportf(call.Pos(), "%s in the simulation core: %s", what, why)
	}
}

// nondetCall classifies a call against the nondeterminism denylist and
// returns the offending call ("time.Now") and the reason it is forbidden.
func nondetCall(info *types.Info, call *ast.CallExpr) (what, why string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	pkgID, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pkgName, okPkg := info.ObjectOf(pkgID).(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	name := sel.Sel.Name
	switch pkgName.Imported().Path() {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return "time." + name, "results must not depend on the wall clock", true
		}
	case "math/rand", "math/rand/v2":
		if !nondetAllowedRand[name] {
			return "global math/rand." + name, "use a seeded rand.New(rand.NewSource(...)) derived from Options.Seed", true
		}
	case "os":
		if name == "Getenv" || name == "Environ" || name == "LookupEnv" {
			return "os." + name, "results must not depend on the environment", true
		}
	}
	return "", "", false
}

// exprString renders a short source form of simple expressions for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	default:
		return "expression"
	}
}

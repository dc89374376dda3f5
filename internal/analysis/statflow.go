package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"fuse/internal/sim"
)

// Statflow pins metric-flow conservation: every counter the simulation core
// increments must flow somewhere an experiment can see — into the Result
// aggregation, a figure-table renderer, or any other read — or carry an
// explicit `//fuselint:internalstat <reason>` annotation on the field. A
// counter that is incremented on the hot path but never read is either dead
// weight or, worse, a metric a new backend or workload silently dropped on
// its way to the tables.
//
// Two passes:
//
//   - The AST pass classifies every use of a countable struct field (integer
//     and float fields, plus fields of the stats package's instrument types)
//     program-wide as an increment (x.f++, x.f += v, x.f.Inc()/Add()/
//     Observe()/AddHits()/AddMisses()) or a read (any other appearance —
//     aggregation in sim.collect, a getter body, a renderer). Fields with
//     increments inside the simulation core (fuse/internal/..., excluding
//     the stats instrument package itself) and zero reads anywhere are
//     findings — when the load covers the field's package and every
//     package that depends on it; a package subset holds only some readers.
//
//   - A keydrift-style reflection Finish pass cross-checks the AST view of
//     sim.Result against the real encoding/json output: every exported
//     Result field must survive to the serialised form, so the flow target
//     the AST pass credits actually exists at run time.
var Statflow = &Analyzer{
	Name:   "statflow",
	Doc:    "requires every counter incremented in the simulation core to be read (serialised, aggregated or rendered) or annotated //fuselint:internalstat",
	Run:    runStatflow,
	Finish: finishStatflow,
}

// statflowScope reports whether increments in the package count as
// simulation-core increments. The stats package itself is excluded: its
// methods are the instruments, not the metrics.
func statflowScope(path string) bool {
	return detCoreScope(path) && !strings.HasSuffix(path, "/stats")
}

// statIncMethods are the methods of the stats instrument types that record a
// new observation; every other method is a read.
var statIncMethods = map[string]bool{
	"Inc": true, "Add": true, "Observe": true, "AddHits": true, "AddMisses": true,
}

// statNeutralMethods neither record nor consume (calling them says nothing
// about whether the metric flows anywhere).
var statNeutralMethods = map[string]bool{"Reset": true}

type statflowState struct {
	// increments maps fieldID -> increment positions inside the simulation
	// core, in encounter order.
	increments map[string][]token.Position
	// reads maps fieldID -> number of read appearances anywhere in the
	// program.
	reads map[string]int
	// internalstat maps fieldID -> the directive found at the field's
	// declaration.
	internalstat map[string]Directive
	// declPos maps fieldID -> the field's declaration position (for
	// reason-missing findings).
	declPos map[string]token.Position
}

func statflowStateOf(prog *Program) *statflowState {
	st, ok := prog.State["statflow"].(*statflowState)
	if !ok {
		st = &statflowState{
			increments:   make(map[string][]token.Position),
			reads:        make(map[string]int),
			internalstat: make(map[string]Directive),
			declPos:      make(map[string]token.Position),
		}
		prog.State["statflow"] = st
	}
	return st
}

// countableFieldID returns the stable field ID of a selector that names a
// countable metric field (numeric, or a stats instrument type), or "".
func countableFieldID(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	id := fieldID(s)
	if id == "" {
		return "", false
	}
	t := s.Obj().Type()
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "/stats") {
		return id, true
	}
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&(types.IsInteger|types.IsFloat) != 0 {
		return id, true
	}
	return "", false
}

func runStatflow(pass *Pass) error {
	st := statflowStateOf(pass.Prog)
	info := pass.Pkg.Info
	fset := pass.Prog.Fset
	core := statflowScope(pass.Pkg.Path)

	// Collect //fuselint:internalstat directives (and declaration positions)
	// on countable fields of every struct in the package.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				structType, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range structType.Fields.List {
					hasDir, dir := fieldDirective(pass, pass.Pkg, f, field, "internalstat")
					for _, name := range field.Names {
						id := pass.Pkg.Path + "." + ts.Name.Name + "." + name.Name
						st.declPos[id] = fset.Position(name.Pos())
						if hasDir {
							st.internalstat[id] = dir
						}
					}
				}
			}
		}
	}

	// Classify every countable-field selector. A selector consumed as an
	// increment target (or a plain overwrite, or a neutral method receiver)
	// is excluded from the read count; everything else — RHS appearances,
	// getter bodies, value-method calls — is a read.
	for _, f := range pass.Pkg.Files {
		handled := make(map[ast.Node]string) // selector -> "inc" | "write"
		target := func(expr ast.Expr, kind string) {
			expr = ast.Unparen(expr)
			if sel, ok := expr.(*ast.SelectorExpr); ok {
				if _, countable := countableFieldID(info, sel); countable {
					handled[sel] = kind
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				target(n.X, "inc")
			case *ast.AssignStmt:
				kind := "write"
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					kind = "inc" // +=, -=, |=, ... compound assignment
				}
				for _, lhs := range n.Lhs {
					target(lhs, kind)
				}
			case *ast.CallExpr:
				// x.f.Inc() records an observation on instrument field f;
				// x.f.Value() (or any other method) consumes it. Plain
				// numeric fields have no methods, so only instrument-typed
				// fields reach the target call.
				fun, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if statIncMethods[fun.Sel.Name] {
					target(fun.X, "inc")
				} else if statNeutralMethods[fun.Sel.Name] {
					target(fun.X, "write")
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, countable := countableFieldID(info, sel)
			if !countable {
				return true
			}
			switch handled[sel] {
			case "inc":
				if core {
					st.increments[id] = append(st.increments[id], fset.Position(sel.Pos()))
				}
			case "write":
				// Overwrites neither produce nor consume the metric.
			default:
				st.reads[id]++
			}
			return true
		})
	}
	return nil
}

func finishStatflow(prog *Program, report func(Diagnostic)) error {
	st := statflowStateOf(prog)

	var ids []string
	//fuselint:ordered keys are sorted before reporting
	for id := range st.increments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if st.reads[id] > 0 {
			continue
		}
		if dir, ok := st.internalstat[id]; ok {
			if dir.Args == "" {
				report(Diagnostic{
					Pos:     st.declPos[id],
					Message: "//fuselint:internalstat needs a reason (why is " + shortFieldID(id) + " deliberately not serialised?)",
				})
			}
			continue
		}
		if covered, err := prog.covers(declPkg(id)); err != nil {
			return err
		} else if !covered {
			continue // some of the field's readers are outside the load
		}
		report(Diagnostic{
			Pos: st.increments[id][0],
			Message: "counter " + shortFieldID(id) + " is incremented in the simulation core but never read: " +
				"aggregate it into sim.Result or a figure table, or annotate the field //fuselint:internalstat <reason>",
		})
	}

	// Rot anchor: if the real simulation core is loaded, the scan must have
	// seen its counters — an empty increment map means the classifier broke,
	// not that the tree is conserving metrics.
	simPkg, haveSim := prog.Lookup("fuse/internal/sim")
	if haveSim && len(st.increments) == 0 {
		report(Diagnostic{
			Pos:     prog.Fset.Position(simPkg.Files[0].Pos()),
			Message: "statflow saw no counter increments in the simulation core: the increment classifier is broken",
		})
	}

	// Reflection cross-check: every exported sim.Result field must survive
	// into the real encoding/json output — the serialisation target the AST
	// pass credits counters with flowing into.
	if haveSim {
		missing, err := missingFromJSON(reflect.TypeOf(sim.Result{}), sim.Result{})
		if err != nil {
			return err
		}
		pos := prog.Fset.Position(simPkg.Files[0].Pos())
		if ts, _, _ := findStructDecl(simPkg, "Result"); ts != nil {
			pos = prog.Fset.Position(ts.Pos())
		}
		for _, name := range missing {
			report(Diagnostic{
				Pos: pos,
				Message: "sim.Result." + name + " does not appear in the JSON encoding of Result: " +
					"a counter aggregated there never reaches serialised results",
			})
		}
	}
	return nil
}

// shortFieldID trims the module path prefix off a field ID for messages:
// "fuse/internal/gpu.SMStats.Cycles" -> "gpu.SMStats.Cycles".
func shortFieldID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

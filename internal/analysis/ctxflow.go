package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ctxflow pins cancellation discipline in the serving layer (engine, store,
// fault, cluster, cmd/fuseserve, cmd/fuseworker) — the packages that run
// under concurrent HTTP traffic and the fleet's long-polls. A context that
// stops flowing is a request that cannot be cancelled. Rules 1–4 apply to
// every function that receives a context.Context (closures inherit the
// enclosing function's context-awareness); rule 5 applies to functions that
// do not:
//
//  1. A call to a function with a `<Name>Context` sibling that accepts a
//     context must use the sibling (sim.Run where RunContext exists).
//  2. No bare time.Sleep: select on ctx.Done() with a timer instead.
//  3. Channel sends and receives must sit in a `select` that also has a
//     ctx.Done() case; a deliberate bare operation carries
//     `//fuselint:noctx <reason>` (e.g. a bounded drain of an
//     always-closed channel).
//  4. HTTP handlers (any function taking *http.Request) must derive their
//     context from r.Context(), never context.Background()/TODO().
//  5. A timed wait inside a loop — time.Sleep, or a receive of a time.Time
//     channel (timer/ticker) outside a ctx.Done() select — in a function
//     with no context parameter is an uncancellable backoff/polling loop:
//     thread a context through, or annotate //fuselint:noctx <reason>.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "requires context threading (Context-sibling calls, no bare sleeps, channel ops or retry loops) in engine, store, fault, cluster, fuseserve and fuseworker",
	Run:  runCtxflow,
}

// ctxflowScope limits the analyzer to the serving layer; testdata stays in
// scope so the fixture can exercise the rules.
func ctxflowScope(path string) bool {
	return strings.Contains(path, "internal/engine") ||
		strings.Contains(path, "internal/store") ||
		strings.Contains(path, "internal/fault") ||
		strings.Contains(path, "internal/cluster") ||
		strings.Contains(path, "cmd/fuseserve") ||
		strings.Contains(path, "cmd/fuseworker") ||
		strings.Contains(path, "testdata")
}

func runCtxflow(pass *Pass) error {
	if !ctxflowScope(pass.Pkg.Path) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFunc(pass, f, fd)
			checkTimedLoops(pass, f, fd)
		}
	}
	return nil
}

// isCtxType reports whether the type is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// isHTTPRequestPtr reports whether the type is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request"
}

// sigTakesCtx reports whether any parameter of the signature is a
// context.Context.
func sigTakesCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkCtxFunc applies the four rules to one function declaration.
func checkCtxFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fset := pass.Prog.Fset

	hasCtx := false
	isHandler := false
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if tv, ok := info.Types[field.Type]; ok {
				if isCtxType(tv.Type) {
					hasCtx = true
				}
				if isHTTPRequestPtr(tv.Type) {
					isHandler = true
				}
			}
		}
	}
	if !hasCtx && !isHandler {
		return
	}

	// guarded collects every node inside the comm statement of a select
	// clause whose select also has a ctx.Done() case: channel operations
	// there are cancellation-aware by construction.
	guarded := selectGuardedNodes(info, fd.Body)

	// escaped reports (and enforces the mandatory reason of) a
	// //fuselint:noctx directive on the offending line.
	escaped := func(n ast.Node) bool {
		line := fset.Position(n.Pos()).Line
		d, ok := pass.Pkg.directiveAt(fset, f, line, "noctx")
		if !ok {
			return false
		}
		if d.Args == "" {
			pass.Reportf(n.Pos(), "//fuselint:noctx needs a reason (why must this stay context-free?)")
		}
		return true
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCtxCall(pass, f, n, hasCtx, isHandler, escaped)
		case *ast.SendStmt:
			if hasCtx && !guarded[n] && !escaped(n) {
				pass.Reportf(n.Pos(), "channel send without cancellation in context-aware function %s: select on ctx.Done() too, or annotate //fuselint:noctx <reason>", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && hasCtx && !guarded[n] && !escaped(n) {
				pass.Reportf(n.Pos(), "channel receive without cancellation in context-aware function %s: select on ctx.Done() too, or annotate //fuselint:noctx <reason>", fd.Name.Name)
			}
		}
		return true
	})
}

// checkTimedLoops applies rule 5: in a function with no context parameter, a
// time.Sleep call or a timer-channel receive inside a for/range loop is an
// uncancellable backoff or polling loop. Context-aware functions are exempt —
// rules 2 and 3 already govern every wait they contain.
func checkTimedLoops(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fset := pass.Prog.Fset

	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if tv, ok := info.Types[field.Type]; ok && isCtxType(tv.Type) {
				return
			}
		}
	}

	// A wait already inside a select with a ctx.Done() case (a context
	// reaching the function some other way: a field, a captured variable)
	// is cancellation-aware and exempt.
	guarded := selectGuardedNodes(info, fd.Body)

	escaped := func(n ast.Node) bool {
		line := fset.Position(n.Pos()).Line
		d, ok := pass.Pkg.directiveAt(fset, f, line, "noctx")
		if !ok {
			return false
		}
		if d.Args == "" {
			pass.Reportf(n.Pos(), "//fuselint:noctx needs a reason (why must this stay context-free?)")
		}
		return true
	}

	// Collect offending waits into a set first: nested loops would otherwise
	// visit (and report) the same node once per enclosing loop.
	seen := make(map[ast.Node]bool)
	var offending []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if fun, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if callee, ok := info.Uses[fun.Sel].(*types.Func); ok &&
						callee.Pkg() != nil && callee.Pkg().Path() == "time" && callee.Name() == "Sleep" {
						if !seen[m] {
							seen[m] = true
							offending = append(offending, m)
						}
					}
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !guarded[m] && isTimeChanRecv(info, m) {
					if !seen[m] {
						seen[m] = true
						offending = append(offending, m)
					}
				}
			}
			return true
		})
		return true
	})
	for _, n := range offending {
		if !escaped(n) {
			pass.Reportf(n.Pos(), "timed wait in a loop in context-free function %s: an uncancellable backoff/polling loop — thread a context and select on ctx.Done(), or annotate //fuselint:noctx <reason>", fd.Name.Name)
		}
	}
}

// selectGuardedNodes collects every node inside the comm statement of a
// select clause whose select also has a ctx.Done() case.
func selectGuardedNodes(info *types.Info, body *ast.BlockStmt) map[ast.Node]bool {
	guarded := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDone := false
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if fun, ok := call.Fun.(*ast.SelectorExpr); ok && fun.Sel.Name == "Done" {
						if tv, ok := info.Types[fun.X]; ok && isCtxType(tv.Type) {
							hasDone = true
						}
					}
				}
				return true
			})
		}
		if !hasDone {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					guarded[m] = true
					return true
				})
			}
		}
		return true
	})
	return guarded
}

// isTimeChanRecv reports whether the receive reads from a time.Time channel
// (time.Timer.C, time.Ticker.C, time.After).
func isTimeChanRecv(info *types.Info, recv *ast.UnaryExpr) bool {
	tv, ok := info.Types[recv.X]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	named, ok := ch.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// checkCtxCall applies rules 1 (Context sibling), 2 (time.Sleep) and 4
// (context.Background in handlers) to one call.
func checkCtxCall(pass *Pass, f *ast.File, call *ast.CallExpr, hasCtx, isHandler bool, escaped func(ast.Node) bool) {
	info := pass.Pkg.Info

	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil || callee.Pkg() == nil {
		return
	}
	pkgPath := callee.Pkg().Path()

	if isHandler && pkgPath == "context" && (callee.Name() == "Background" || callee.Name() == "TODO") {
		pass.Reportf(call.Pos(), "context.%s in an HTTP handler: derive the context from r.Context() so client disconnects cancel the work", callee.Name())
		return
	}
	if !hasCtx {
		return
	}
	if pkgPath == "time" && callee.Name() == "Sleep" {
		if !escaped(call) {
			pass.Reportf(call.Pos(), "time.Sleep in a context-aware function: select on ctx.Done() and a timer instead, or annotate //fuselint:noctx <reason>")
		}
		return
	}

	sig, ok := callee.Type().(*types.Signature)
	if !ok || sigTakesCtx(sig) {
		return // already threads a context
	}
	sibling := ctxSibling(callee, sig)
	if sibling == "" {
		return
	}
	if !escaped(call) {
		pass.Reportf(call.Pos(), "call to %s drops the context: %s exists and accepts one — thread ctx through, or annotate //fuselint:noctx <reason>",
			callee.Name(), sibling)
	}
}

// ctxSibling returns the name of a `<Name>Context` variant of the callee
// that accepts a context.Context — on the same receiver type for methods, in
// the same package scope for functions — or "".
func ctxSibling(callee *types.Func, sig *types.Signature) string {
	cand := callee.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), cand)
		if m, ok := obj.(*types.Func); ok {
			if msig, ok := m.Type().(*types.Signature); ok && sigTakesCtx(msig) {
				return recvDisplayName(recv.Type()) + "." + cand
			}
		}
		return ""
	}
	if obj := callee.Pkg().Scope().Lookup(cand); obj != nil {
		if m, ok := obj.(*types.Func); ok {
			if msig, ok := m.Type().(*types.Signature); ok && sigTakesCtx(msig) {
				return callee.Pkg().Name() + "." + cand
			}
		}
	}
	return ""
}

// recvDisplayName renders a short receiver type name for messages.
func recvDisplayName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

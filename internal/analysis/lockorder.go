package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// Lockorder pins mutex discipline in the serving layer — the packages
// lockorderPackages names: engine, store, fault, cluster, cmd/fuseserve and
// cmd/fuseworker. Three rules:
//
//  1. Pairing — a function that calls Lock/RLock on a mutex must also call
//     the matching Unlock/RUnlock (inline or deferred) somewhere in its
//     body; a lock with no unlock in the same function is a leak waiting
//     for a panic or an early return.
//  2. No blocking under lock — while a mutex is held, the function must not
//     call a function annotated `//fuselint:blocking` (RunBatch, Get — the
//     ones that wait on simulations or I/O) or perform a channel
//     send/receive: a blocked goroutine holding the runner mutex stalls
//     every other request.
//  3. Consistent order — across the whole program, two mutexes must always
//     be acquired in the same relative order; an A-then-B function
//     coexisting with a B-then-A function is a deadlock the race detector
//     only finds when the schedules collide.
//
// The per-function walk is a linearisation of the statement order (events
// sorted by source position), which over- and under-approximates branchy
// control flow symmetrically; the serving layer's lock sections are short
// and straight-line, which is exactly what this check keeps true.
//
// Blind spot: rule 3 sees only locks taken inside one function body. A lock
// acquired in a callee while the caller holds another is invisible, so an
// inversion split across calls passes. store.Disk's append holds wmu while it
// calls createSegment, which takes mu; a Health that took wmu while holding
// mu would deadlock against it, yet neither this check nor any test flags it.
//
// Findings come back sorted by position.
func Lockorder(prog *Program) []Diagnostic {
	lc := &lockChecker{prog: prog, blocking: blockingFuncs(prog), pairs: make(map[lockPair]token.Position)}
	for _, pkg := range prog.Packages {
		if !lockorderScope(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					lc.checkFunc(pkg, fd)
				}
			}
		}
	}
	lc.checkOrder()
	slices.SortStableFunc(lc.diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return lc.diags
}

// lockorderPackages are the import-path fragments of the packages lockorder
// checks: the serving layer, plus the analysis fixtures under testdata.
var lockorderPackages = []string{
	"internal/engine", "internal/store", "internal/fault", "internal/cluster",
	"cmd/fuseserve", "cmd/fuseworker", "testdata",
}

func lockorderScope(path string) bool {
	return slices.ContainsFunc(lockorderPackages, func(frag string) bool { return strings.Contains(path, frag) })
}

// blockingFuncs returns the IDs of every function of the program that
// carries a //fuselint:blocking directive.
func blockingFuncs(prog *Program) map[string]bool {
	blocking := make(map[string]bool)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !pkg.hasDirective(prog.Fset, f, fd.Doc, fd, "blocking") {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					blocking[funcID(obj)] = true
				}
			}
		}
	}
	return blocking
}

// funcID is the stable ID of a function: its full name, taken from the
// generic declaration for an instantiated method.
func funcID(fn *types.Func) string { return fn.Origin().FullName() }

// fieldID is the stable ID of a struct field selection
// ("pkg/path.Struct.Field"), or "" for any other selection.
func fieldID(sel *types.Selection) string {
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
}

// lockEvent is one mutex- or blocking-relevant operation in a function,
// ordered by source position.
type lockEvent struct {
	kind   string // "lock", "unlock", "deferunlock", "blocking", "chanop"
	id     string // per-function mutex identity (rendered source chain)
	typeID string // program-wide identity ("pkg.Struct.field" or "pkg.var")
	pos    token.Pos
	detail string // callee / operation for messages
}

// lockPair is one observed "acquired b while holding a" edge.
type lockPair struct{ first, second string }

// lockChecker carries one Lockorder run: the IDs of the blocking functions,
// where each acquisition pair was first seen, and the findings.
//
// IDs are stable across type-check universes. Each source package is
// type-checked against compiled export data, so the *types.Func a caller
// package sees for an imported function is a different object from the one
// the callee's own source-checked package defines. Functions are therefore
// keyed by their full name ("pkg/path.Name", "(*pkg/path.Recv).Name") and
// fields by "pkg/path.Struct.Field", computed alike from either universe.
type lockChecker struct {
	prog     *Program
	blocking map[string]bool
	pairs    map[lockPair]token.Position
	diags    []Diagnostic
}

func (lc *lockChecker) reportf(pos token.Pos, format string, args ...any) {
	lc.diags = append(lc.diags, Diagnostic{Pos: lc.prog.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// mutexMethod classifies a call as a sync mutex operation and returns the
// receiver expression.
func mutexMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	fn, okFn := info.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// mutexIDs renders the per-function and program-wide identities of a mutex
// expression.
func mutexIDs(info *types.Info, recv ast.Expr) (id, typeID string) {
	id = types.ExprString(recv)
	var obj types.Object
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if fid := fieldID(info.Selections[e]); fid != "" {
			return id, fid
		}
		obj = info.ObjectOf(e.Sel)
	case *ast.Ident:
		obj = info.ObjectOf(e)
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return id, v.Pkg().Path() + "." + v.Name() // a package-level mutex
	}
	return id, id
}

// checkFunc collects the lock events of one function and enforces pairing
// and no-blocking-under-lock; acquisition pairs are recorded for the
// program-wide order check.
func (lc *lockChecker) checkFunc(pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	var events []lockEvent

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if recv, name, ok := mutexMethod(info, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				id, tid := mutexIDs(info, recv)
				events = append(events, lockEvent{kind: "deferunlock", id: id, typeID: tid, pos: n.Pos()})
			}
			return false // the deferred call itself runs at exit, not here
		case *ast.CallExpr:
			if recv, name, ok := mutexMethod(info, n); ok {
				id, tid := mutexIDs(info, recv)
				switch name {
				case "Lock", "RLock", "TryLock":
					events = append(events, lockEvent{kind: "lock", id: id, typeID: tid, pos: n.Pos()})
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{kind: "unlock", id: id, typeID: tid, pos: n.Pos()})
				}
				return true
			}
			// A call to a //fuselint:blocking-annotated function.
			var callee *types.Func
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee, _ = info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				callee, _ = info.Uses[fun.Sel].(*types.Func)
			}
			if callee != nil && lc.blocking[funcID(callee)] {
				events = append(events, lockEvent{kind: "blocking", pos: n.Pos(), detail: callee.Name()})
			}
		case *ast.SendStmt:
			events = append(events, lockEvent{kind: "chanop", pos: n.Pos(), detail: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				events = append(events, lockEvent{kind: "chanop", pos: n.Pos(), detail: "channel receive"})
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	slices.SortStableFunc(events, func(a, b lockEvent) int { return cmp.Compare(a.pos, b.pos) })

	held := make(map[string]lockEvent) // id -> the lock event that acquired it
	locked := make(map[string]token.Pos)
	unlocked := make(map[string]bool)
	var order []string // deterministic iteration over held
	for _, ev := range events {
		switch ev.kind {
		case "lock":
			for _, heldID := range order {
				if h, ok := held[heldID]; ok && h.typeID != ev.typeID {
					if pair := (lockPair{h.typeID, ev.typeID}); lc.pairs[pair] == (token.Position{}) {
						lc.pairs[pair] = lc.prog.Fset.Position(ev.pos)
					}
				}
			}
			if !slices.Contains(order, ev.id) {
				order = append(order, ev.id) // a re-lock after an unlock is already listed
			}
			held[ev.id] = ev
			if _, ok := locked[ev.id]; !ok {
				locked[ev.id] = ev.pos
			}
		case "unlock":
			delete(held, ev.id)
			unlocked[ev.id] = true
		case "deferunlock":
			unlocked[ev.id] = true // held until return, but paired
		case "blocking", "chanop":
			for _, heldID := range order {
				if _, ok := held[heldID]; !ok {
					continue
				}
				what := ev.detail
				if ev.kind == "blocking" {
					what = "call to blocking " + ev.detail
				}
				lc.reportf(ev.pos, "%s while holding %s: release the lock first — a blocked goroutine holding it stalls every other request", what, heldID)
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(locked)) {
		if !unlocked[id] {
			lc.reportf(locked[id], "%s is locked in %s but never unlocked in the same function: pair it with an Unlock (deferred or inline)", id, fd.Name.Name)
		}
	}
}

// checkOrder flags pairs of mutexes acquired in both relative orders
// anywhere in the program.
func (lc *lockChecker) checkOrder() {
	keys := slices.SortedFunc(maps.Keys(lc.pairs), func(a, b lockPair) int {
		return cmp.Or(strings.Compare(a.first, b.first), strings.Compare(a.second, b.second))
	})
	for _, p := range keys {
		// Of the two orders, report the one whose first mutex sorts first.
		if revPos, ok := lc.pairs[lockPair{p.second, p.first}]; ok && p.first < p.second {
			lc.diags = append(lc.diags, Diagnostic{
				Pos: lc.pairs[p],
				Message: fmt.Sprintf("inconsistent lock order: %s is acquired while holding %s here, but the reverse order occurs at %s — pick one global order",
					shortFieldID(p.second), shortFieldID(p.first), revPos),
			})
		}
	}
}

// shortFieldID trims the module path prefix off a field ID for messages:
// "fuse/internal/engine.Runner.mu" -> "engine.Runner.mu".
func shortFieldID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Lockorder pins mutex discipline in the serving layer — the packages
// ctxflowScope names: engine, store, fault, cluster, cmd/fuseserve and
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
var Lockorder = &Analyzer{
	Name:   "lockorder",
	Doc:    "requires unlock pairing, no blocking calls under lock, and a consistent global mutex acquisition order in engine, store, fault, cluster, fuseserve and fuseworker",
	Run:    runLockorder,
	Finish: finishLockorder,
}

// lockorderScope matches ctxflowScope: the serving layer plus fixtures.
func lockorderScope(path string) bool { return ctxflowScope(path) }

// lockEvent is one mutex- or blocking-relevant operation in a function,
// ordered by source position.
type lockEvent struct {
	kind     string // "lock", "unlock", "deferunlock", "blocking", "chanop"
	id       string // per-function mutex identity (rendered source chain)
	typeID   string // program-wide identity ("pkg.Struct.field" or "pkg.var")
	pos      token.Pos
	detail   string // callee / operation for messages
	readLock bool   // RLock/RUnlock
}

// lockPair is one observed "acquired b while holding a" edge.
type lockPair struct{ first, second string }

type lockorderState struct {
	pairs map[lockPair][]token.Position
}

func lockorderStateOf(prog *Program) *lockorderState {
	st, ok := prog.State["lockorder"].(*lockorderState)
	if !ok {
		st = &lockorderState{pairs: make(map[lockPair][]token.Position)}
		prog.State["lockorder"] = st
	}
	return st
}

func runLockorder(pass *Pass) error {
	if !lockorderScope(pass.Pkg.Path) {
		return nil
	}
	idx := xpkgOf(pass.Prog)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockFunc(pass, idx, fd)
		}
	}
	return nil
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
func mutexIDs(pass *Pass, recv ast.Expr) (id, typeID string) {
	id = exprString(recv)
	typeID = id
	if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
		if fid := selFieldID(pass.Pkg.Info, sel); fid != "" {
			typeID = fid
		} else if obj := pass.Pkg.Info.ObjectOf(sel.Sel); isPkgLevelVar(obj) {
			typeID = obj.Pkg().Path() + "." + obj.Name()
		}
	} else if ident, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := pass.Pkg.Info.ObjectOf(ident); isPkgLevelVar(obj) {
			typeID = obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return id, typeID
}

// checkLockFunc collects the lock events of one function and enforces
// pairing and no-blocking-under-lock; acquisition pairs are recorded for the
// program-wide order check.
func checkLockFunc(pass *Pass, idx *xpkgIndex, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	var events []lockEvent

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if recv, name, ok := mutexMethod(info, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				id, tid := mutexIDs(pass, recv)
				events = append(events, lockEvent{kind: "deferunlock", id: id, typeID: tid, pos: n.Pos(), readLock: name == "RUnlock"})
			}
			return false // the deferred call itself runs at exit, not here
		case *ast.CallExpr:
			if recv, name, ok := mutexMethod(info, n); ok {
				id, tid := mutexIDs(pass, recv)
				switch name {
				case "Lock", "RLock", "TryLock":
					events = append(events, lockEvent{kind: "lock", id: id, typeID: tid, pos: n.Pos(), readLock: name == "RLock"})
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{kind: "unlock", id: id, typeID: tid, pos: n.Pos(), readLock: name == "RUnlock"})
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
			if callee != nil {
				if fi, ok := idx.byID[funcID(callee)]; ok {
					if _, ok := fi.Pkg.nodeDirective(pass.Prog.Fset, fi.File, fi.Decl.Doc, fi.Decl, "blocking"); ok {
						events = append(events, lockEvent{kind: "blocking", pos: n.Pos(), detail: callee.Name()})
					}
				}
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
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	st := lockorderStateOf(pass.Prog)
	held := make(map[string]lockEvent) // id -> the lock event that acquired it
	locked := make(map[string]token.Pos)
	unlocked := make(map[string]bool)
	var order []string // deterministic iteration over held
	for _, ev := range events {
		switch ev.kind {
		case "lock":
			for _, heldID := range order {
				if h, ok := held[heldID]; ok && h.typeID != ev.typeID {
					pair := lockPair{h.typeID, ev.typeID}
					st.pairs[pair] = append(st.pairs[pair], pass.Prog.Fset.Position(ev.pos))
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
				pass.Reportf(ev.pos, "%s while holding %s: release the lock first — a blocked goroutine holding it stalls every other request", what, heldID)
			}
		}
	}
	var lockedIDs []string
	//fuselint:ordered the ids are sorted before reporting
	for id := range locked {
		lockedIDs = append(lockedIDs, id)
	}
	sort.Strings(lockedIDs)
	for _, id := range lockedIDs {
		if !unlocked[id] {
			pass.Reportf(locked[id], "%s is locked in %s but never unlocked in the same function: pair it with an Unlock (deferred or inline)", id, fd.Name.Name)
		}
	}
}

// finishLockorder flags pairs of mutexes acquired in both relative orders
// anywhere in the program.
func finishLockorder(prog *Program, report func(Diagnostic)) error {
	st := lockorderStateOf(prog)
	var keys []lockPair
	//fuselint:ordered pairs are sorted before reporting
	for p := range st.pairs {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].first != keys[j].first {
			return keys[i].first < keys[j].first
		}
		return keys[i].second < keys[j].second
	})
	reported := make(map[lockPair]bool)
	for _, p := range keys {
		rev := lockPair{p.second, p.first}
		if reported[p] || reported[rev] {
			continue
		}
		if _, ok := st.pairs[rev]; !ok {
			continue
		}
		reported[p], reported[rev] = true, true
		report(Diagnostic{
			Pos: st.pairs[p][0],
			Message: fmt.Sprintf("inconsistent lock order: %s is acquired while holding %s here, but the reverse order occurs at %s — pick one global order",
				shortFieldID(p.second), shortFieldID(p.first), st.pairs[rev][0]),
		})
	}
	return nil
}

// shortFieldID trims the module path prefix off a field ID for messages:
// "fuse/internal/engine.Runner.mu" -> "engine.Runner.mu".
func shortFieldID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

package analysis

import (
	"go/ast"
	"go/types"
)

// The cross-package substrate: a program-wide index of source-declared
// functions, which lockorder consults for a callee's //fuselint:blocking
// directive across packages, plus the stable field IDs lockorder keys
// mutexes by.
//
// Identity across type-check universes. Each source package is type-checked
// against compiled export data, so the *types.Func a caller package sees for
// an imported function is a different object from the one the callee's own
// source-checked package defines. The index therefore keys every function by
// a stable string ID — "pkg/path.Name" or "pkg/path.(*Recv).Name" — computed
// identically from either universe, and the same convention is used for
// struct fields ("pkg/path.Struct.Field").

// funcInfo is one source-declared function or method.
type funcInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	ID   string
}

// xpkgIndex is the program-wide view, built once per Run and cached in
// Program.State.
type xpkgIndex struct {
	// byID maps the stable function ID to its declaration.
	byID map[string]*funcInfo
}

// funcID renders the stable cross-universe ID of a function object, or ""
// when the function cannot be addressed that way (interface methods,
// builtins, function-typed locals).
func funcID(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	ptr := false
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
		ptr = true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "" // interface receiver or unnamed type
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return ""
	}
	if ptr {
		return fn.Pkg().Path() + ".(*" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// typeID renders the stable ID of a named type ("pkg/path.Name").
func typeID(named *types.Named) string {
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// fieldID renders the stable ID of a struct field at a selection site
// ("pkg/path.Struct.Field"), resolving the owning struct through the
// selection's receiver type. Returns "" for non-field selections.
func fieldID(sel *types.Selection) string {
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	obj, ok := sel.Obj().(*types.Var)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	t := sel.Recv()
	for {
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return typeID(named) + "." + obj.Name()
}

// xpkgOf builds (or returns the cached) program index.
func xpkgOf(prog *Program) *xpkgIndex {
	if idx, ok := prog.State["xpkg"].(*xpkgIndex); ok {
		return idx
	}
	idx := &xpkgIndex{byID: make(map[string]*funcInfo)}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if id := funcID(obj); id != "" {
					idx.byID[id] = &funcInfo{Pkg: pkg, File: f, Decl: fd, ID: id}
				}
			}
		}
	}
	prog.State["xpkg"] = idx
	return idx
}

// selFieldID returns the stable field ID of a field selection, or "".
func selFieldID(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	return fieldID(s)
}

// isPkgLevelVar reports whether the object is a package-scope variable.
func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"fuse/internal/config"
	"fuse/internal/sim"
)

// Keydrift pins the content-addressed store-key schema: every input that can
// change a simulation's outcome must reach the canonical key encoding, and
// every input that deliberately does not (an execution-resource knob such
// as a worker-pool size) must say so in the source. Adding a config field
// without making that decision is a build failure, not a silent cache-aliasing
// bug.
//
// The check is annotation-driven:
//
//   - `//fuselint:keyroot` marks a struct that is serialised verbatim into
//     the store-key material (config.GPUConfig, sim.Options, trace.Profile).
//     Every field, recursively, must be serialisable by encoding/json —
//     exported and not tagged json:"-" — or carry `//fuselint:execonly
//     <reason>` together with json:"-" (or be unexported) so the exclusion
//     is explicit.
//
// A job's only identity is its store key, a hash of the keyroot structs, so
// the keyroot rule covers every job field that can change a result.
//
// Two repo-specific anchors keep the annotations themselves from rotting:
// the known key structs must carry their annotations (deleting one is a
// finding), and config.GPUConfig.WithMemDefaults must explicitly plumb every
// field of dram.Config — so new DRAM geometry cannot ship without entering
// the keyed GPU configuration. A reflection cross-check (running over the
// real structs, not their syntax) verifies that what the AST calls
// serialisable actually appears in the canonical JSON encoding.
var Keydrift = &Analyzer{
	Name:   "keydrift",
	Doc:    "proves every simulation input is store-keyed or explicitly annotated execution-only",
	Run:    runKeydrift,
	Finish: finishKeydrift,
}

// keydriftAnchors names the keyroot struct each package must keep annotated.
var keydriftAnchors = map[string]string{
	"fuse/internal/config": "GPUConfig",
	"fuse/internal/sim":    "Options",
	"fuse/internal/trace":  "Profile",
}

func runKeydrift(pass *Pass) error {
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
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if _, ok := pass.Pkg.nodeDirective(pass.Prog.Fset, f, doc, ts, "keyroot"); ok {
					checkKeyrootStruct(pass, pass.Pkg, f, ts, st, make(map[string]bool))
				}
			}
		}
	}
	checkKeydriftAnchors(pass)
	if pass.Pkg.Path == "fuse/internal/config" {
		checkMemDefaultsPlumbing(pass)
	}
	return nil
}

// checkKeydriftAnchors verifies the known key structs still carry their
// annotations — the annotations drive everything else, so deleting one must
// itself be a finding.
func checkKeydriftAnchors(pass *Pass) {
	typeName, ok := keydriftAnchors[pass.Pkg.Path]
	if !ok {
		return
	}
	ts, _, f := findStructDecl(pass.Pkg, typeName)
	if ts == nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "expected struct %s in %s (store-key anchor) was not found", typeName, pass.Pkg.Path)
		return
	}
	doc := ts.Doc
	if doc == nil {
		if gd := enclosingGenDecl(f, ts); gd != nil {
			doc = gd.Doc
		}
	}
	if _, ok := pass.Pkg.nodeDirective(pass.Prog.Fset, f, doc, ts, "keyroot"); !ok {
		pass.Reportf(ts.Pos(), "%s.%s feeds the store key and must be annotated //fuselint:keyroot", pass.Pkg.Path, typeName)
	}
}

// checkKeyrootStruct enforces the keyroot field rules, recursing into named
// struct fields declared in loaded packages.
func checkKeyrootStruct(pass *Pass, pkg *Package, f *ast.File, ts *ast.TypeSpec, st *ast.StructType, visited map[string]bool) {
	id := pkg.Path + "." + ts.Name.Name
	if visited[id] {
		return
	}
	visited[id] = true
	for _, field := range st.Fields.List {
		tag := jsonTagName(field)
		execonly, execDir := fieldDirective(pass, pkg, f, field, "execonly")
		names := fieldNames(field)
		for _, name := range names {
			exported := ast.IsExported(name)
			serialised := exported && tag != "-"
			switch {
			case serialised && execonly:
				pass.Reportf(field.Pos(), "%s.%s is annotated //fuselint:execonly but is still serialised into the key material; tag it json:\"-\" (or drop the annotation)", ts.Name.Name, name)
			case serialised:
				// Keyed — recurse into nested structs so their fields obey
				// the same rules.
				checkKeyrootFieldType(pass, pkg, field.Type, visited)
			case execonly:
				if execDir.Args == "" {
					pass.Reportf(field.Pos(), "//fuselint:execonly needs a justification (why is %s.%s not part of the simulation's identity?)", ts.Name.Name, name)
				}
			default:
				pass.Reportf(field.Pos(), "%s.%s is silently excluded from the store-key material (unexported or json:\"-\"); key it, or annotate //fuselint:execonly <reason>", ts.Name.Name, name)
			}
		}
	}
}

// checkKeyrootFieldType recurses into the named struct type behind a keyed
// field, wherever its declaring package is part of the program.
func checkKeyrootFieldType(pass *Pass, pkg *Package, expr ast.Expr, visited map[string]bool) {
	tv, ok := pkg.Info.Types[expr]
	if !ok {
		return
	}
	t := tv.Type
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	declPkg, ok := pass.Prog.Lookup(named.Obj().Pkg().Path())
	if !ok {
		return
	}
	ts, st, f := findStructDecl(declPkg, named.Obj().Name())
	if ts == nil || st == nil {
		return
	}
	checkKeyrootStruct(pass, declPkg, f, ts, st, visited)
}

// checkMemDefaultsPlumbing verifies that GPUConfig.WithMemDefaults explicitly
// sets every field of dram.Config in its resolve literal: a new DRAM geometry
// field then cannot be added without being plumbed through the keyed
// GPUConfig (or annotated execonly at its declaration in internal/dram).
func checkMemDefaultsPlumbing(pass *Pass) {
	var method *ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "WithMemDefaults" || fd.Recv == nil {
				continue
			}
			method = fd
		}
	}
	if method == nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "GPUConfig.WithMemDefaults not found: the store key canonicalises DRAM geometry through it")
		return
	}
	var lit *ast.CompositeLit
	var litType *types.Struct
	var litNamed *types.Named
	ast.Inspect(method, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[cl]
		if !ok {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok || named.Obj().Name() != "Config" || named.Obj().Pkg() == nil ||
			!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/dram") {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		lit, litType, litNamed = cl, st, named
		return false
	})
	if lit == nil {
		pass.Reportf(method.Pos(), "WithMemDefaults does not build a dram.Config literal: DRAM geometry is no longer canonicalised into the store key")
		return
	}
	set := make(map[string]bool)
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				set[id.Name] = true
			}
		}
	}
	for i := 0; i < litType.NumFields(); i++ {
		fieldVar := litType.Field(i)
		if set[fieldVar.Name()] {
			continue
		}
		if dramFieldExeconly(pass, litNamed, fieldVar.Name()) {
			continue
		}
		pass.Reportf(lit.Pos(), "dram.Config.%s is not plumbed through GPUConfig.WithMemDefaults: the field would not be canonicalised into store keys (plumb it, or annotate it //fuselint:execonly in internal/dram)", fieldVar.Name())
	}
}

// dramFieldExeconly looks the field's declaration up in the dram package's
// source and reports whether it carries an execonly directive.
func dramFieldExeconly(pass *Pass, named *types.Named, fieldName string) bool {
	declPkg, ok := pass.Prog.declSyntax(named.Obj().Pkg().Path())
	if !ok {
		return false
	}
	_, st, f := findStructDecl(declPkg, named.Obj().Name())
	if st == nil {
		return false
	}
	for _, field := range st.Fields.List {
		for _, name := range fieldNames(field) {
			if name == fieldName {
				ok, _ := fieldDirective(pass, declPkg, f, field, "execonly")
				return ok
			}
		}
	}
	return false
}

// finishKeydrift is the reflection cross-check: the AST rules above reason
// about syntax, this runs over the real types. Every exported, untagged field
// of the keyed structs must actually appear in their canonical JSON encoding
// (a custom MarshalJSON or a tag rename that hides one would otherwise pass
// the AST check). Runs only when the real store package is part of the
// program — fixture runs exercise the annotation rules alone.
func finishKeydrift(prog *Program, report func(Diagnostic)) error {
	if _, ok := prog.Lookup("fuse/internal/store"); !ok {
		return nil
	}
	checks := []struct {
		name  string
		value any
	}{
		{"config.GPUConfig", config.GPUConfig{}},
		{"sim.Options", sim.Options{}},
	}
	for _, c := range checks {
		missing, err := missingFromJSON(reflect.TypeOf(c.value), c.value)
		if err != nil {
			return fmt.Errorf("keydrift reflection check on %s: %w", c.name, err)
		}
		for _, field := range missing {
			report(Diagnostic{
				Pos:     token.Position{Filename: "(reflection)"},
				Message: fmt.Sprintf("%s.%s does not appear in the canonical JSON encoding that feeds store keys (custom marshaller or tag hides it)", c.name, field),
			})
		}
	}
	return nil
}

// missingFromJSON marshals the value and reports every exported field (deeply)
// whose effective JSON name is absent from the encoding. omitempty fields are
// skipped: the zero probe value would legitimately drop them.
func missingFromJSON(t reflect.Type, v any) ([]string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		return nil, err
	}
	var missing []string
	var walk func(prefix string, t reflect.Type, enc any)
	walk = func(prefix string, t reflect.Type, enc any) {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct {
			return
		}
		obj, ok := enc.(map[string]any)
		if !ok {
			// The whole struct encodes as something else (custom marshaller):
			// flag every field, the schema is opaque to the key material.
			for i := 0; i < t.NumField(); i++ {
				if t.Field(i).IsExported() {
					missing = append(missing, prefix+t.Field(i).Name)
				}
			}
			return
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			tag := f.Tag.Get("json")
			name := f.Name
			if tag != "" {
				parts := strings.Split(tag, ",")
				if parts[0] == "-" && len(parts) == 1 {
					continue // explicitly excluded: the AST pass polices these
				}
				if parts[0] != "" {
					name = parts[0]
				}
				if len(parts) > 1 && strings.Contains(tag, "omitempty") {
					continue
				}
			}
			sub, ok := obj[name]
			if !ok {
				missing = append(missing, prefix+f.Name)
				continue
			}
			walk(prefix+f.Name+".", f.Type, sub)
		}
	}
	walk("", t, decoded)
	return missing, nil
}

// --- shared small helpers ---

// findStructDecl locates a named struct declaration in a package.
func findStructDecl(pkg *Package, name string) (*ast.TypeSpec, *ast.StructType, *ast.File) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				st, _ := ts.Type.(*ast.StructType)
				return ts, st, f
			}
		}
	}
	return nil, nil, nil
}

// enclosingGenDecl finds the GenDecl containing a TypeSpec (for doc comments
// written on the `type` keyword of single-spec declarations).
func enclosingGenDecl(f *ast.File, ts *ast.TypeSpec) *ast.GenDecl {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			if spec == ts {
				return gd
			}
		}
	}
	return nil
}

// fieldNames returns the declared names of a struct field (the type name for
// embedded fields).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, n := range field.Names {
			names[i] = n.Name
		}
		return names
	}
	// Embedded field: the unqualified type name.
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

// jsonTagName extracts the json name component of a field tag ("" when
// untagged).
func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	tag := strings.Trim(field.Tag.Value, "`")
	value := reflect.StructTag(tag).Get("json")
	name, _, _ := strings.Cut(value, ",")
	return name
}

// fieldDirective finds a directive on a struct field (doc comment, trailing
// comment, or the line above).
func fieldDirective(pass *Pass, pkg *Package, f *ast.File, field *ast.Field, name string) (bool, Directive) {
	doc := field.Doc
	if d, ok := pkg.nodeDirective(pass.Prog.Fset, f, doc, field, name); ok {
		return true, d
	}
	if field.Comment != nil {
		for _, c := range field.Comment.List {
			if strings.HasPrefix(c.Text, directivePrefix) {
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				dname, args, _ := strings.Cut(rest, " ")
				if strings.TrimSpace(dname) == name {
					return true, Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}
				}
			}
		}
	}
	return false, Directive{}
}

package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"strings"
)

// Directives are single-line comments of the form
//
//	//fuselint:<name> [reason]
//
// attached to the declaration they govern: in its doc comment, as a
// trailing comment on its first line, or standalone on the line directly
// above. lockorder reads one, "blocking", which marks a function that waits
// on simulations or I/O; each use states its reason in the source.
const directivePrefix = "//fuselint:"

// Directive is one parsed //fuselint: comment.
type Directive struct {
	Name string // e.g. "blocking"
	Line int    // the line the comment itself sits on
	// Standalone is true when the comment is alone on its line: only then
	// does it govern the line below. A trailing directive (after code)
	// governs its own line exclusively — otherwise `a T //fuselint:x`
	// would silently annotate the next declaration too.
	Standalone bool
}

// directiveName returns the name of a //fuselint: comment.
func directiveName(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	name, _, _ := strings.Cut(rest, " ")
	return strings.TrimSpace(name), ok
}

// fileDirectives scans (and caches) every fuselint directive of a file.
func (pkg *Package) fileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	filename := fset.Position(f.Pos()).Filename
	if ds, ok := pkg.directives[filename]; ok {
		return ds
	}
	var srcLines []string
	if raw, err := os.ReadFile(filename); err == nil {
		srcLines = strings.Split(string(raw), "\n")
	}
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, ok := directiveName(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			standalone := true
			if pos.Line-1 < len(srcLines) && pos.Column-1 <= len(srcLines[pos.Line-1]) {
				standalone = strings.TrimSpace(srcLines[pos.Line-1][:pos.Column-1]) == ""
			}
			ds = append(ds, Directive{Name: name, Line: pos.Line, Standalone: standalone})
		}
	}
	if pkg.directives == nil {
		pkg.directives = make(map[string][]Directive)
	}
	pkg.directives[filename] = ds
	return ds
}

// directiveAt returns the named directive governing a node that starts on
// `line` of `f`: a directive written on the same line (trailing comment) or
// standalone on the line directly above.
func (pkg *Package) directiveAt(fset *token.FileSet, f *ast.File, line int, name string) (Directive, bool) {
	for _, d := range pkg.fileDirectives(fset, f) {
		if d.Name == name && (d.Line == line || (d.Line == line-1 && d.Standalone)) {
			return d, true
		}
	}
	return Directive{}, false
}

// hasDirective reports whether the named directive governs a declaration:
// in its doc comment, trailing on its first line, or on the line above.
func (pkg *Package) hasDirective(fset *token.FileSet, f *ast.File, doc *ast.CommentGroup, node ast.Node, name string) bool {
	if doc != nil {
		for _, c := range doc.List {
			if n, ok := directiveName(c.Text); ok && n == name {
				return true
			}
		}
	}
	_, ok := pkg.directiveAt(fset, f, fset.Position(node.Pos()).Line, name)
	return ok
}

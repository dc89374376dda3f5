package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"strings"
)

// Directives are single-line comments of the form
//
//	//fuselint:<name> [free-form justification or arguments]
//
// attached to the declaration, field or statement they govern: in its doc
// comment, as a trailing comment on the same line, or on the line directly
// above. They are the one escape hatch every analyzer shares — each use
// states its reason in the source, where reviewers see it.
const directivePrefix = "//fuselint:"

// Directive is one parsed //fuselint: comment.
type Directive struct {
	Name string // e.g. "ordered", "noctx"
	Args string // the rest of the line, trimmed
	Pos  token.Pos
	Line int // the line the comment itself sits on
	// Standalone is true when the comment is alone on its line: only then
	// does it govern the line below. A trailing directive (after code)
	// governs its own line exclusively — otherwise `a T //fuselint:x`
	// would silently annotate the next field too.
	Standalone bool
}

// fileDirectives scans (and caches) every fuselint directive of a file.
func (pkg *Package) fileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	filename := fset.Position(f.Pos()).Filename
	if pkg.directives == nil {
		pkg.directives = make(map[string][]Directive)
	}
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
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			name, args, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			standalone := true
			if pos.Line-1 < len(srcLines) && pos.Column > 1 {
				before := srcLines[pos.Line-1]
				if pos.Column-1 <= len(before) {
					standalone = strings.TrimSpace(before[:pos.Column-1]) == ""
				}
			}
			ds = append(ds, Directive{
				Name:       strings.TrimSpace(name),
				Args:       strings.TrimSpace(args),
				Pos:        c.Pos(),
				Line:       pos.Line,
				Standalone: standalone,
			})
		}
	}
	pkg.directives[filename] = ds
	return ds
}

// directiveAt returns the named directive governing a node that starts on
// `line` of `f`: a directive written on the same line (trailing comment) or on
// the line directly above.
func (pkg *Package) directiveAt(fset *token.FileSet, f *ast.File, line int, name string) (Directive, bool) {
	for _, d := range pkg.fileDirectives(fset, f) {
		if d.Name == name && (d.Line == line || (d.Line == line-1 && d.Standalone)) {
			return d, true
		}
	}
	return Directive{}, false
}

// nodeDirective returns the named directive governing a node: in the doc
// comment group (if the caller passes one), trailing on the node's first
// line, or on the line above the node (which also covers one-line doc
// comments when the parser attached them elsewhere).
func (pkg *Package) nodeDirective(fset *token.FileSet, f *ast.File, doc *ast.CommentGroup, node ast.Node, name string) (Directive, bool) {
	if doc != nil {
		for _, c := range doc.List {
			if strings.HasPrefix(c.Text, directivePrefix) {
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				dname, args, _ := strings.Cut(rest, " ")
				if strings.TrimSpace(dname) == name {
					return Directive{
						Name: name,
						Args: strings.TrimSpace(args),
						Pos:  c.Pos(),
						Line: fset.Position(c.Pos()).Line,
					}, true
				}
			}
		}
	}
	return pkg.directiveAt(fset, f, fset.Position(node.Pos()).Line, name)
}

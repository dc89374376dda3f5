package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Hotalloc is the allocation-budget gate for the simulator's hot path. The
// steady-state event loop runs in a few thousand allocations per simulation
// (a ~49x reduction over the naive implementation, see ROADMAP); a stray
// heap allocation in the per-cycle path silently costs that back. Functions
// annotated `//fuselint:noalloc` (SM advance, L1D access, MSHR handling,
// event-heap operations, retry batches) are checked against the compiler's
// own escape analysis: `go build -gcflags=-m` output is parsed, and any
// "escapes to heap" / "moved to heap" diagnostic landing inside a noalloc
// function is a finding — unless it is recorded in the golden allowlist
// (internal/analysis/noalloc_allowlist.json), which exists for deliberate,
// reviewed allocations (e.g. a slice growth that amortises to zero).
//
// The check runs in Finish: Run only collects the annotated spans, then a
// single `go build` over the owning packages produces the compiler facts.
// Escape diagnostics replay from the build cache, so repeat runs are cheap.
var Hotalloc = &Analyzer{
	Name:   "hotalloc",
	Doc:    "checks //fuselint:noalloc functions against compiler escape analysis with a golden allowlist",
	Run:    runHotalloc,
	Finish: finishHotalloc,
}

// HotallocAllowlist overrides the allowlist location (set by cmd/fuselint's
// -noalloc-allowlist flag). Empty means <module>/internal/analysis/
// noalloc_allowlist.json, which may be absent (empty allowlist).
var HotallocAllowlist string

// noallocSpan is one annotated function: a file/line range plus the
// human-readable function identity used in allowlist entries and messages.
type noallocSpan struct {
	file      string // absolute path
	startLine int
	endLine   int
	funcID    string // e.g. fuse/internal/sim.(*eventHeap).push
	pkgPath   string
}

type hotallocState struct {
	spans []noallocSpan
}

func hotallocStateOf(prog *Program) *hotallocState {
	st, ok := prog.State["hotalloc"].(*hotallocState)
	if !ok {
		st = &hotallocState{}
		prog.State["hotalloc"] = st
	}
	return st
}

func runHotalloc(pass *Pass) error {
	st := hotallocStateOf(pass.Prog)
	fset := pass.Prog.Fset
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.Pkg.nodeDirective(fset, f, fd.Doc, fd, "noalloc"); !ok {
				continue
			}
			start := fset.Position(fd.Pos())
			end := fset.Position(fd.Body.End())
			st.spans = append(st.spans, noallocSpan{
				file:      filepath.Clean(start.Filename),
				startLine: start.Line,
				endLine:   end.Line,
				funcID:    funcDeclID(pass.Pkg.Path, fd),
				pkgPath:   pass.Pkg.Path,
			})
		}
	}
	return nil
}

// funcDeclID renders the conventional package-qualified function identity,
// e.g. "fuse/internal/gpu.(*SM).Cycle" or "fuse/internal/sim.NewSimulator".
func funcDeclID(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := false
	if s, ok := recv.(*ast.StarExpr); ok {
		star = true
		recv = s.X
	}
	// Strip type parameters (IndexExpr) and grab the base identifier.
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return fmt.Sprintf("%s.(*%s).%s", pkgPath, name, fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s.%s", pkgPath, name, fd.Name.Name)
}

// allowEntry is one golden-allowlist record: a function identity plus the
// exact compiler message (position-independent, so line drift does not
// invalidate the allowlist) and the reviewed justification.
type allowEntry struct {
	Func   string `json:"func"`
	Msg    string `json:"msg"`
	Reason string `json:"reason"`
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func finishHotalloc(prog *Program, report func(Diagnostic)) error {
	st := hotallocStateOf(prog)
	if len(st.spans) == 0 {
		return nil
	}
	allow, err := loadHotallocAllowlist(prog.ModuleDir)
	if err != nil {
		return err
	}

	pkgSet := make(map[string]bool)
	for _, s := range st.spans {
		pkgSet[s.pkgPath] = true
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	// -gcflags=-m applies to the packages named on the command line; escape
	// diagnostics land on stderr and replay from the build cache on repeat
	// runs.
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = prog.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("hotalloc: go build -gcflags=-m: %v\n%s", err, stderr.String())
	}

	used := make(map[int]bool) // indices of allowlist entries that matched
	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeLineRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(prog.ModuleDir, file)
		}
		file = filepath.Clean(file)
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, s := range st.spans {
			if s.file != file || lineNo < s.startLine || lineNo > s.endLine {
				continue
			}
			if i := matchAllow(allow, s.funcID, msg); i >= 0 {
				used[i] = true
				break
			}
			report(Diagnostic{
				Pos:     token.Position{Filename: file, Line: lineNo, Column: col},
				Message: fmt.Sprintf("%s is annotated //fuselint:noalloc but the compiler reports %q; remove the allocation or add a reviewed allowlist entry", s.funcID, msg),
			})
			break
		}
	}

	// A stale allowlist entry means the allocation it blessed is gone —
	// surface it so the golden file shrinks with the code. Only entries of
	// loaded packages can be judged: the others were never compiled here.
	for i, e := range allow {
		if _, loaded := prog.Lookup(declPkg(e.Func)); !used[i] && loaded {
			report(Diagnostic{
				Pos:     token.Position{Filename: hotallocAllowlistPath(prog.ModuleDir)},
				Message: fmt.Sprintf("stale allowlist entry: %s no longer reports %q; delete it", e.Func, e.Msg),
			})
		}
	}
	return nil
}

func matchAllow(allow []allowEntry, funcID, msg string) int {
	for i, e := range allow {
		if e.Func == funcID && e.Msg == msg {
			return i
		}
	}
	return -1
}

func hotallocAllowlistPath(moduleDir string) string {
	if HotallocAllowlist != "" {
		return HotallocAllowlist
	}
	return filepath.Join(moduleDir, "internal", "analysis", "noalloc_allowlist.json")
}

func loadHotallocAllowlist(moduleDir string) ([]allowEntry, error) {
	path := hotallocAllowlistPath(moduleDir)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) && HotallocAllowlist == "" {
			return nil, nil
		}
		return nil, fmt.Errorf("hotalloc: reading allowlist: %w", err)
	}
	var allow []allowEntry
	if err := json.Unmarshal(raw, &allow); err != nil {
		return nil, fmt.Errorf("hotalloc: parsing %s: %w", path, err)
	}
	for _, e := range allow {
		if e.Func == "" || e.Msg == "" || e.Reason == "" {
			return nil, fmt.Errorf("hotalloc: %s: every entry needs func, msg and a reason", path)
		}
	}
	return allow, nil
}

// Command fuselint runs the repository's static-analysis suite — detmap,
// ctxflow and lockorder (see internal/analysis) — over the packages matching
// the given patterns and exits non-zero when any invariant is violated. CI
// runs it as a hard gate:
//
//	go run ./cmd/fuselint ./...
//
// Exit codes: 0 means the tree is clean, 1 means the analyzers produced
// findings, 2 means fuselint itself could not run (a package failed to load
// or type-check, an unknown analyzer name, a broken pass). With -json the
// findings are printed as a JSON array instead of file:line:col lines.
//
// The directives the analyzers understand (//fuselint:ordered, noctx,
// blocking) are documented in the README under "Invariants & annotations".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fuse/internal/analysis"
)

// Exit codes of the fuselint command.
const (
	exitClean    = 0 // no findings
	exitFindings = 1 // at least one finding
	exitError    = 2 // fuselint itself failed (load error, bad flag, broken pass)
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// jsonDiagnostic is the -json encoding of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the testable body of the command: it parses the flags, loads the
// packages, runs the analyzers and renders the findings, returning the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "print the findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fuselint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "fuselint: unknown analyzer %q\n", name)
				return exitError
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "fuselint: %v\n", err)
		return exitError
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fuselint: %v\n", err)
		return exitError
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "fuselint: %v\n", err)
		return exitError
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "fuselint: %v\n", err)
			return exitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fuselint: %d finding(s)\n", len(diags))
		return exitFindings
	}
	return exitClean
}

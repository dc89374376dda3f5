// Command fuselint runs lockorder, the repository's one static check (see
// internal/analysis), over the packages matching the given patterns and
// exits non-zero when the serving layer's mutex discipline is violated. CI
// runs it as a hard gate:
//
//	go run ./cmd/fuselint ./...
//
// It takes no flags. Findings are printed one per line as
// file:line:col: lockorder: message. Exit codes: 0 means the tree is clean,
// 1 means lockorder produced findings, 2 means fuselint itself could not run
// (a flag was given, or a package failed to load or type-check).
//
// The one directive lockorder understands, //fuselint:blocking, is
// documented in the README under "Invariants & annotations".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fuse/internal/analysis"
)

// Exit codes of the fuselint command.
const (
	exitClean    = 0 // no findings
	exitFindings = 1 // at least one finding
	exitError    = 2 // fuselint itself failed (a flag, a load error)
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: it loads the packages, runs
// lockorder and prints the findings, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: fuselint [packages]") }
	if err := fs.Parse(args); err != nil {
		return exitError
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
	diags := analysis.Lockorder(prog)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fuselint: %d finding(s)\n", len(diags))
		return exitFindings
	}
	return exitClean
}

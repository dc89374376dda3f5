package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestExitCodeOnLoadError pins exit code 2 for a package that does not
// type-check: a broken tree must fail the CI gate as fuselint's own error,
// never pass as "no findings".
func TestExitCodeOnLoadError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"fuse/cmd/fuselint/testdata/broken"}, &stdout, &stderr)
	if code != exitError {
		t.Fatalf("run on a non-type-checking package: exit %d, want %d\nstderr: %s", code, exitError, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fuselint:") {
		t.Errorf("stderr does not explain the failure: %q", stderr.String())
	}
}

// TestExitCodeOnUnknownAnalyzer pins exit code 2 for a bad -only name: a
// typo in the CI invocation must not silently run nothing.
func TestExitCodeOnUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "nosuchanalyzer", "./..."}, &stdout, &stderr)
	if code != exitError {
		t.Fatalf("run with unknown -only name: exit %d, want %d", code, exitError)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr does not name the bad analyzer: %q", stderr.String())
	}
}

// TestExitCodeAndJSONOnFindings runs one analyzer over its own fixture (which
// has seeded violations by construction) and pins exit code 1 plus the -json
// encoding the problem matcher and other tools consume.
func TestExitCodeAndJSONOnFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-only", "detmap", "fuse/internal/analysis/testdata/src/detmapfix"}, &stdout, &stderr)
	if code != exitFindings {
		t.Fatalf("run on the detmap fixture: exit %d, want %d\nstderr: %s", code, exitFindings, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array of findings: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON output has no findings despite exit code 1")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer != "detmap" || d.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", d)
		}
	}
}

// TestExitCodeOnList pins exit code 0 for -list, which must name exactly the
// analyzers of the suite, one per line, in reporting order.
func TestExitCodeOnList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list"}, &stdout, &stderr)
	if code != exitClean {
		t.Fatalf("run -list: exit %d, want %d", code, exitClean)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if want := []string{"detmap", "ctxflow", "lockorder"}; !slices.Equal(names, want) {
		t.Errorf("-list names %v, want %v:\n%s", names, want, stdout.String())
	}
}

// TestPackageSubsetExitsClean pins exit code 0 for a clean package subset: a
// package of a clean tree lints clean when it is the only package analysed.
func TestPackageSubsetExitsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"fuse/internal/sim"}, &stdout, &stderr)
	if code != exitClean {
		t.Fatalf("run on internal/sim alone: exit %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, stdout.String(), stderr.String())
	}
}

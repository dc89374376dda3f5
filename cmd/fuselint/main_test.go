package main

import (
	"bytes"
	"regexp"
	"strconv"
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

// TestExitCodeOnUnknownAnalyzer pins exit code 2 for the old analyzer
// selection flags: fuselint takes no flags, so a CI invocation that still
// passes -only (or -json) must fail loudly, never lint nothing.
func TestExitCodeOnUnknownAnalyzer(t *testing.T) {
	for _, args := range [][]string{{"-only", "lockorder", "./..."}, {"-only", "nosuchanalyzer", "./..."}, {"-json", "./..."}} {
		checkFlagRejected(t, args)
	}
}

// TestExitCodeOnList pins exit code 2 for -list: with one analyzer there is
// nothing to list, and the flag is rejected like any other.
func TestExitCodeOnList(t *testing.T) {
	checkFlagRejected(t, []string{"-list"})
}

// checkFlagRejected runs fuselint with args and requires exit code 2, the
// flag package's "not defined" error on stderr and nothing on stdout.
func checkFlagRejected(t *testing.T, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != exitError {
		t.Errorf("run %v: exit %d, want %d", args, code, exitError)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined") || stdout.Len() != 0 {
		t.Errorf("run %v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
	}
}

// TestExitCodeOnFindings runs fuselint over lockorder's fixture (which has
// seeded violations by construction) and pins exit code 1 plus the
// file:line:col: lockorder: message lines the CI problem matcher reads.
func TestExitCodeOnFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"fuse/internal/analysis/testdata/src/lockorderfix"}, &stdout, &stderr)
	if code != exitFindings {
		t.Fatalf("run on the lockorder fixture: exit %d, want %d\nstderr: %s", code, exitFindings, stderr.String())
	}
	line := regexp.MustCompile(`^\S+\.go:\d+:\d+: lockorder: \S.*$`)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("finding %q is not file:line:col: lockorder: message", l)
		}
	}
	if want := "fuselint: " + strconv.Itoa(len(lines)) + " finding(s)"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not report %q", stderr.String(), want)
	}
}

// TestPackageSubsetExitsClean pins exit code 0 for a clean package subset: a
// package of a clean tree lints clean when it is the only package analysed.
func TestPackageSubsetExitsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"fuse/internal/engine"}, &stdout, &stderr)
	if code != exitClean {
		t.Fatalf("run on internal/engine alone: exit %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, stdout.String(), stderr.String())
	}
}

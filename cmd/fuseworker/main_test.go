package main

import (
	"context"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/engine"
	"fuse/internal/experiments"
)

// buildTool compiles this command into a temp binary once per test.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fuseworker")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestWorkerBinaryEndToEnd: the real binary registers with a real HTTP
// coordinator, executes a dispatched job (result identical to in-process
// execution), and SIGTERM produces a clean exit — the contract the CI
// cluster-smoke job and production deployments rely on.
func TestWorkerBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildTool(t)

	coord := cluster.New(cluster.Config{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	cmd := exec.Command(bin,
		"-coordinator", srv.URL,
		"-id", "e2e-worker",
		"-parallel", "2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting fuseworker: %v", err)
	}
	// Always reap the child, whatever path the test takes.
	exited := false
	defer func() {
		if !exited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job := engine.Job{Kind: 0, Workload: "ATAX", Opts: experiments.QuickScale.Options()}
	got, err := coord.Execute(ctx, job)
	if err != nil {
		t.Fatalf("Execute through worker binary: %v\nworker stderr: %s", err, stderr.String())
	}
	want, err := engine.Execute(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("worker-binary result differs from in-process execution\nwant %+v\ngot  %+v", want, got)
	}
	if s := coord.Stats(); s.Completed == 0 || s.Workers != 1 {
		t.Errorf("coordinator stats after job: %+v", s)
	}

	// SIGTERM must stop the worker cleanly: exit code 0, clean-stop log line.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("worker did not exit cleanly on SIGTERM: %v\nstderr: %s", err, stderr.String())
	}
	exited = true
	if !strings.Contains(stderr.String(), "stopped cleanly") {
		t.Errorf("missing clean-stop log line; stderr:\n%s", stderr.String())
	}
}

// TestWorkerBinaryRequiresCoordinator: usage errors exit 2 before any
// network or simulation work.
func TestWorkerBinaryRequiresCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("bare invocation: err = %v, want exit code 2", err)
	}
	if !strings.Contains(string(out), "-coordinator is required") {
		t.Errorf("missing usage message: %s", out)
	}
}

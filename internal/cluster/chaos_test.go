package cluster

import (
	"context"
	"testing"
	"time"

	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/fault"
)

// TestChaosWorkerKillByteIdentical is the cluster half of the chaos suite:
// a seeded fault.Plan kills one of two workers at a deterministic point
// mid-batch (its KillAfter hook cancels the worker's own context, dropping
// its in-flight job on the floor), and the figure matrix must still render
// the exact bytes of the fault-free single-process run — via the
// coordinator's re-dispatch of the job the stopped worker held.
func TestChaosWorkerKillByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick-scale simulations")
	}
	ref := refFig13(t)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Short lease/poll so the re-dispatch machinery runs inside test time.
	coord := New(Config{
		Lease:       200 * time.Millisecond,
		PollTimeout: 50 * time.Millisecond,
	})
	defer coord.Close()
	client := LoopbackClient(coord.Handler())

	// Worker 1 dies after its second execution: the injector's kill hook
	// cancels the worker's context.
	inj := fault.NewInjector(fault.Plan{Seed: 42, KillAfter: 2}, engine.ExecFunc(engine.Execute))
	w1ctx, w1kill := context.WithCancel(ctx)
	defer w1kill()
	inj.SetKill(w1kill)
	w1, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: client, ID: "w1", Exec: inj.Exec})
	if err != nil {
		t.Fatal(err)
	}
	w1done := make(chan struct{})
	go func() { defer close(w1done); _ = w1.Run(w1ctx) }()

	// Worker 2 is healthy and must absorb the whole batch.
	w2, err := NewWorker(WorkerConfig{Coordinator: LoopbackBase, Client: client, ID: "w2", Exec: engine.Execute})
	if err != nil {
		t.Fatal(err)
	}
	w2ctx, w2stop := context.WithCancel(ctx)
	defer w2stop()
	w2done := make(chan struct{})
	go func() { defer close(w2done); _ = w2.Run(w2ctx) }()

	runner := engine.New(engine.Config{Exec: coord.Execute})
	matrix := experiments.NewMatrixRunner(experiments.QuickScale, runner)
	table, err := experiments.RunContext(ctx, matrix, experiments.ExpFig13, testWorkloads)
	if err != nil {
		t.Fatalf("fig13 under worker kill: %v", err)
	}
	if got := table.String(); got != ref {
		t.Errorf("table under worker kill differs from fault-free single-process run\nref:\n%s\ngot:\n%s", ref, got)
	}

	if s := inj.Stats(); s.Kills != 1 {
		t.Errorf("injected kills = %d, want 1", s.Kills)
	}
	s := coord.Stats()
	if s.Redispatched == 0 {
		t.Errorf("Redispatched = 0, want ≥ 1 (the killed worker's job was never re-dispatched)")
	}
	checkConservation(t, "worker kill", s, runner.Executed())

	w2stop()
	<-w1done
	<-w2done
}

package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"fuse/internal/engine"
	"fuse/internal/sim"
	"fuse/internal/store"
)

// storeBackedMatrix builds a Matrix whose engine composes a fresh memory tier
// over the given disk store and counts real simulator executions.
func storeBackedMatrix(t *testing.T, dir string, execs *atomic.Int32) *Matrix {
	t.Helper()
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := engine.New(engine.Config{
		Cache: store.NewTiered(store.NewMemory(), disk),
		Exec: func(ctx context.Context, job engine.Job) (sim.Result, error) {
			execs.Add(1)
			return engine.Execute(ctx, job)
		},
	})
	return NewMatrixRunner(QuickScale, r)
}

func TestFigureWarmFromStoreRunsZeroSimulations(t *testing.T) {
	// End-to-end warm-store reproduction: running a figure twice against one
	// store directory must simulate everything exactly once, and the second
	// (warm) run must render a byte-identical table from pure store reads.
	dir := t.TempDir()

	var cold atomic.Int32
	m1 := storeBackedMatrix(t, dir, &cold)
	t1, err := Run(m1, ExpFig13, smallWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Load() == 0 {
		t.Fatalf("cold run should simulate")
	}

	var warm atomic.Int32
	m2 := storeBackedMatrix(t, dir, &warm)
	t2, err := Run(m2, ExpFig13, smallWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Load(); got != 0 {
		t.Errorf("warm run executed %d simulations, want 0", got)
	}
	if got := m2.Runner().StoreHits(); int32(got) != cold.Load() {
		t.Errorf("warm run store hits = %d, want %d", got, cold.Load())
	}
	if t1.String() != t2.String() {
		t.Errorf("warm table differs from cold table:\n--- cold ---\n%s\n--- warm ---\n%s", t1, t2)
	}

	// A second figure sharing the same runs (fig14 reads the fig13 matrix)
	// is warm too.
	var shared atomic.Int32
	m3 := storeBackedMatrix(t, dir, &shared)
	if _, err := Run(m3, ExpFig14, smallWorkloads); err != nil {
		t.Fatal(err)
	}
	if got := shared.Load(); got != 0 {
		t.Errorf("fig14 against the warm store executed %d simulations, want 0", got)
	}
}

// figMatrixExperiments is the evaluation matrix of Figs. 13-17.
var figMatrixExperiments = []string{ExpFig13, ExpFig14, ExpFig15, ExpFig16, ExpFig17}

// TestStoreKeysPinned pins every store key of the Fig. 13-17 and
// all-experiment job sets at each scale, and of the all-experiment set at
// quick scale with a SetBackend override, as the SHA-256 of the sorted,
// newline-joined distinct keys. A changed digest means stored results
// would silently become misses (or, worse, alias): change the key
// encoding only with a SchemaVersion bump.
func TestStoreKeysPinned(t *testing.T) {
	cases := []struct {
		scale   Scale
		exps    []string
		backend string
		keys    int
		digest  string
	}{
		{QuickScale, figMatrixExperiments, "", 147, "3204136f9e226332ffad6bafe3741feaf5744fa25cd70c06d128250081df2a5a"},
		{QuickScale, AllExperiments(), "", 367, "079464931c748438bdd0792cac19ee9fc0627abc703ff739a19c27e259db360f"},
		{BenchScale, figMatrixExperiments, "", 147, "5f7794275974c58c2626661c9cdd30347fc62aecf14ab1dafc0c124e586fab02"},
		{BenchScale, AllExperiments(), "", 367, "c1d8b156c40cd906a1d9c41626b88eaae6856de635e283037c201b777bf87ff6"},
		{FullScale, figMatrixExperiments, "", 147, "c1e5c5cea1abe483ed7fc4618f505d5d70d2f4e400c5ad80b251a7176c318d00"},
		{FullScale, AllExperiments(), "", 367, "b51893354f0ce28155fcde1a5c3736315ab3ec63fa9c60a2d182a15f2360edf6"},
		{QuickScale, AllExperiments(), "HBM2", 367, "0a7aa69ce8a7aeeb7f6b2b4473eebf1e0810424a2624c728da8ce3139817ceb7"},
	}
	for _, c := range cases {
		m := NewMatrix(c.scale)
		m.SetBackend(c.backend)
		var keys []string
		for _, name := range c.exps {
			for _, job := range m.Jobs(name, nil) {
				key, err := engine.StoreKey(job)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:]); len(keys) != c.keys || got != c.digest {
			t.Errorf("%+v %v %q: %d keys with digest %s, want %d with %s", c.scale, c.exps, c.backend, len(keys), got, c.keys, c.digest)
		}
	}
}

func TestAllExperimentsExecuteEachStoreKeyOnce(t *testing.T) {
	// The backend sweep's GDDR5 Dy-FUSE points are Fig. 13's default-backend
	// Dy-FUSE points under another label: one simulation each, not two.
	var execs atomic.Int32
	r := engine.New(engine.Config{Exec: func(_ context.Context, job engine.Job) (sim.Result, error) {
		execs.Add(1)
		return sim.Result{Workload: job.Workload}, nil
	}})
	m := NewMatrixRunner(QuickScale, r)
	if err := m.Prewarm(context.Background(), AllExperiments(), nil); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 367 || r.Executed() != 367 {
		t.Errorf("all experiments executed %d simulations (Executed %d), want the 367 distinct store keys", got, r.Executed())
	}
}

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"fuse/internal/config"
)

// TestResultDigestsPinned pins the SHA-256 of every L1D kind's Result on two
// memory-bound workloads, at a scale small enough for a unit test but with
// heavy back-pressure: every run is dense with L1D MSHR stalls, held-stall
// replays and L2 NACKs retried in batches. The engine equivalence tests
// compare the sparse engine with the step-every-cycle reference, which shares
// the memory side (retry batches included) and the stall paths; these digests
// also catch a change that moves a simulated number self-consistently. A
// deliberate model change must regenerate them.
//
// Each point's run is also the simulator's allocation budget: the heap
// allocations of its RunWorkload call (New plus Run), pinned per point, may
// grow by at most allocHeadroom. The counts are deterministic for one toolchain; the race
// detector adds 28 at every point. A single escaping allocation in a
// per-cycle or per-access path adds hundreds, so the budget holds the hot
// path allocation-free without annotating it. Lower the pinned counts when
// a change removes allocations.
func TestResultDigestsPinned(t *testing.T) {
	pinned := []struct {
		kind     config.L1DKind
		workload string
		digest   string
		allocs   float64
	}{
		{config.L1SRAM, "ATAX", "aeb87bc2a3a1d8ca2644b1451207581e2d861cf32d65df3c978eebdc46eab46b", 1342},
		{config.L1SRAM, "GEMM", "81ce8801cce53408b94950b4147f633346d08e2cdb0010bda3181b6b84800c72", 1405},
		{config.ByNVM, "ATAX", "b31e52e146ac1dc688f1cc9629b29f75f1e98fe55776be35a9c7f6ec8ab0780a", 1312},
		{config.ByNVM, "GEMM", "71b4373513e5b1b7cf7fd17a6b381e8479dfaefb78748ecb8c8cfe8adffe18f7", 1397},
		{config.FASRAM, "ATAX", "a80079d0554d354ca4596182f7dbb6ec025b3ee0159a00198a707fb26edd4a07", 1351},
		{config.FASRAM, "GEMM", "a6adcd18cf904987efc01c023d0a38786c36b5f598437d07c1089b1ef446cf47", 1390},
		{config.Hybrid, "ATAX", "c6ab2f161f0fa789b91547bfb8b974400d725af1cc8ea0f4dda0f7828394ca29", 1379},
		{config.Hybrid, "GEMM", "fab435dd8ab5c0a658839e9d233d41b3a34cc076f96a5ba47b90c50a273ea83f", 1428},
		{config.BaseFUSE, "ATAX", "abf4bf6da676642ff666e70729a2e613e5a967fa01932e3ab5aecb6da8edd89f", 1384},
		{config.BaseFUSE, "GEMM", "5f18c8adedd325e1dd6c07babf6410bd91e259d48d7369891f5859200afa8c98", 1459},
		{config.FAFUSE, "ATAX", "01547d68f977606f920bd9eb2ffb6e46f69e2bbcebf512112c94562f6a0b5441", 1407},
		{config.FAFUSE, "GEMM", "d6976226cff30a2b1e9035251750f90ff18070aca082d7743c37e3287d66a3da", 1480},
		{config.DyFUSE, "ATAX", "bc3add1cdbd08a35ceab81172da84f35e7595576f977323cf1d2d980cb960a7d", 1418},
		{config.DyFUSE, "GEMM", "b0317799a18bcfac672d9472da60810c0f3ad6b69970234c9961095852875fa2", 1512},
	}
	if len(pinned) != 2*len(config.AllL1DKinds) {
		t.Fatalf("%d pinned digests for %d L1D kinds x 2 workloads", len(pinned), len(config.AllL1DKinds))
	}
	const allocHeadroom = 1.10
	opts := Options{InstructionsPerWarp: 200, SMOverride: 4, Seed: 42}
	for _, p := range pinned {
		var res Result
		allocs := testing.AllocsPerRun(1, func() { res = mustRun(t, p.kind, p.workload, opts) })
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != p.digest {
			t.Errorf("%v/%s: result digest %s, pinned %s\n%+v", p.kind, p.workload, got, p.digest, res)
		}
		if allocs > p.allocs*allocHeadroom {
			t.Errorf("%v/%s: %.0f heap allocations, over the budget of %.0f pinned + %.0f%%", p.kind, p.workload, allocs, p.allocs, (allocHeadroom-1)*100)
		}
	}
}

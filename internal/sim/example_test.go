package sim_test

import (
	"fmt"
	"log"

	"fuse/internal/config"
	"fuse/internal/sim"
	"fuse/internal/trace"
)

// ExampleNew builds a Dy-FUSE L1D cache inside the paper's Fermi-class GPU
// model, runs an irregular PolyBench workload on it, and compares the result
// against the conventional SRAM cache.
func ExampleNew() {
	// ATAX (matrix-transpose-vector product) is one of the irregular,
	// thrash-prone kernels the paper's introduction motivates.
	profile, ok := trace.ProfileByName("ATAX")
	if !ok {
		log.Fatal("workload ATAX not found")
	}

	// A short run is enough to see the effect.
	opts := sim.Options{
		InstructionsPerWarp: 600,
		SMOverride:          4, // simulate 4 of the 15 SMs (memory side scales down with it)
		Seed:                1,
	}

	run := func(kind config.L1DKind) sim.Result {
		gpuCfg := config.FermiGPU(config.NewL1DConfig(kind))
		s, err := sim.New(gpuCfg, trace.Synthetic(profile), opts)
		if err != nil {
			log.Fatalf("building %v simulator: %v", kind, err)
		}
		return s.Run()
	}

	// Run the conventional SRAM L1D and the full FUSE proposal.
	baseline := run(config.L1SRAM)
	fuse := run(config.DyFUSE)

	fmt.Println("=== FUSE quickstart: ATAX on a Fermi-class GPU ===")
	fmt.Printf("%-22s %12s %12s\n", "", "L1-SRAM", "Dy-FUSE")
	fmt.Printf("%-22s %12.3f %12.3f\n", "IPC", baseline.IPC, fuse.IPC)
	fmt.Printf("%-22s %12.3f %12.3f\n", "L1D miss rate", baseline.L1DMissRate, fuse.L1DMissRate)
	fmt.Printf("%-22s %12.1f %12.1f\n", "outgoing refs / SM", baseline.OutgoingPerSM, fuse.OutgoingPerSM)
	fmt.Printf("%-22s %12.2f %12.2f\n", "off-chip time fraction", baseline.OffChipFraction, fuse.OffChipFraction)
	fmt.Printf("\nDy-FUSE speedup over L1-SRAM: %.2fx\n", fuse.SpeedupOver(baseline))
	fmt.Printf("Outgoing memory references reduced by %.0f%%\n",
		(1-float64(fuse.L1D.OutgoingRequests)/float64(baseline.L1D.OutgoingRequests))*100)
	if fuse.PredTrue > 0 {
		fmt.Printf("Read-level predictor: %.0f%% confident-correct, %.0f%% neutral, %.0f%% wrong\n",
			fuse.PredTrue*100, fuse.PredNeutral*100, fuse.PredFalse*100)
	}
	// Output:
	// === FUSE quickstart: ATAX on a Fermi-class GPU ===
	//                             L1-SRAM      Dy-FUSE
	// IPC                           0.627        1.056
	// L1D miss rate                 0.541        0.303
	// outgoing refs / SM          12884.5       8015.5
	// off-chip time fraction         0.84         0.73
	//
	// Dy-FUSE speedup over L1-SRAM: 1.68x
	// Outgoing memory references reduced by 38%
	// Read-level predictor: 69% confident-correct, 30% neutral, 1% wrong
}

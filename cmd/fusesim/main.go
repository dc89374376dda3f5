// Command fusesim runs (L1D configuration, workload) simulations on the
// paper's Fermi-class or Volta-class GPU model and prints a detailed report
// per run: IPC, L1D miss rate, stall breakdown, predictor accuracy, off-chip
// decomposition and the energy breakdown.
//
// Both -config and -workload accept comma-separated lists; the cross product
// is executed as one batch on the engine's worker pool and the reports are
// printed in submission order (so the output is independent of -parallel).
//
// Usage:
//
//	fusesim -config Dy-FUSE -workload ATAX
//	fusesim -config L1-SRAM -workload GEMM -sms 4 -instructions 2000
//	fusesim -config L1-SRAM,Dy-FUSE -workload ATAX,GEMM -parallel 4
//	fusesim -config Dy-FUSE -workload ATAX -backend GDDR5,HBM2,STT-MRAM
//	fusesim -config Dy-FUSE -workload ATAX -cpuprofile cpu.pprof -memprofile mem.pprof
//	fusesim -workloads my-workloads.json -workload mykernel
//	fusesim -list
//
// The -workloads flag loads a workload file (JSON: custom synthetic profiles
// and phased composites — see the trace package) into the registry; the
// loaded names are then usable anywhere a builtin name is.
//
// The -cpuprofile/-memprofile flags write pprof profiles of the batch, so
// performance work on the cycle engine starts from a measured profile
// (`go tool pprof`) rather than a guess.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fuse/internal/config"
	"fuse/internal/dram"
	"fuse/internal/energy"
	"fuse/internal/engine"
	"fuse/internal/sim"
	"fuse/internal/store"
	"fuse/internal/trace"
)

func main() {
	var (
		configNames  = flag.String("config", "Dy-FUSE", "comma-separated L1D configurations (L1-SRAM, FA-SRAM, By-NVM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE)")
		workloadList = flag.String("workload", "ATAX", "comma-separated benchmark names (see -list)")
		instructions = flag.Uint64("instructions", 1000, "instructions per warp")
		sms          = flag.Int("sms", 0, "number of SMs to simulate (0 = full GPU)")
		seed         = flag.Uint64("seed", 42, "workload generator seed")
		volta        = flag.Bool("volta", false, "use the Volta-class GPU model (84 SMs, 6 MB L2, 128 KB L1)")
		backendList  = flag.String("backend", "", "comma-separated memory backends (see -list; empty = the GPU model's default)")
		list         = flag.Bool("list", false, "list available workloads and configurations, then exit")
		showEnergy   = flag.Bool("energy", true, "print the energy breakdown")
		parallel     = flag.Int("parallel", 0, "number of concurrent simulations (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		storeDir     = flag.String("store", "", "persistent result-store directory shared with fusetables/fuseserve (empty = no store)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the simulation batch to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile (taken after the batch) to this file")
		workloadFile = flag.String("workloads", "", "workload file (JSON) of custom profiles and phased workloads to register")
	)
	flag.Parse()

	if *workloadFile != "" {
		names, err := trace.LoadWorkloadFile(*workloadFile)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "[workloads %s: registered %s]\n", *workloadFile, strings.Join(names, ", "))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		// fatalf exits without running defers; flush there too so an aborted
		// run (e.g. -timeout expiring mid-batch — exactly the case worth
		// profiling) still leaves a readable profile behind.
		flushCPUProfile = pprof.StopCPUProfile
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	if *list {
		fmt.Println("L1D configurations:")
		for _, k := range config.AllL1DKinds {
			fmt.Printf("  %s\n", k)
		}
		fmt.Println("Memory backends:")
		for _, b := range dram.Backends() {
			fmt.Printf("  %s\n", b)
		}
		fmt.Println("Workloads:")
		for _, p := range trace.Profiles() {
			fmt.Printf("  %-8s (%s, APKI %.1f): %s\n", p.Name, p.Suite, p.APKI, p.Description)
		}
		for _, name := range trace.WorkloadNames() {
			w, _ := trace.Lookup(name)
			if ph, ok := w.(*trace.PhasedWorkload); ok {
				fmt.Printf("  %-8s (phased, %d phases): %s\n", name, len(ph.Phases), ph.Description)
			}
		}
		return
	}

	var kinds []config.L1DKind
	for _, name := range splitList(*configNames) {
		kind, err := config.ParseL1DKind(name)
		if err != nil {
			fatalf("unknown configuration %q: %v", name, err)
		}
		kinds = append(kinds, kind)
	}
	workloads := splitList(*workloadList)
	if len(kinds) == 0 || len(workloads) == 0 {
		fatalf("need at least one configuration and one workload")
	}
	for _, w := range workloads {
		if _, err := trace.LookupWorkload(w); err != nil {
			fatalf("%v (use -list to see the available ones)", err)
		}
	}

	opts := sim.Options{
		InstructionsPerWarp: *instructions,
		SMOverride:          *sms,
		Seed:                *seed,
	}

	backends := splitList(*backendList)
	for _, be := range backends {
		if _, err := dram.BackendByName(be); err != nil {
			fatalf("%v", err)
		}
	}
	if len(backends) == 0 {
		backends = []string{""} // the GPU model's own backend
	}

	// The cross product; Volta variants and backend overrides become
	// labelled custom-GPU jobs.
	var jobs []engine.Job
	for _, kind := range kinds {
		for _, w := range workloads {
			for _, be := range backends {
				job := engine.Job{Kind: kind, Workload: w, Opts: opts}
				switch {
				case *volta:
					cfg := config.VoltaGPU(config.ScaleL1D(config.NewL1DConfig(kind), 4))
					label := "volta-" + kind.String()
					if be != "" {
						cfg.MemBackend = be
						label += "@" + be
					}
					job.Label = label
					job.GPU = &cfg
				case be != "":
					job = engine.BackendJob(kind, w, be, opts)
				}
				jobs = append(jobs, job)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := engine.Config{Workers: *parallel}
	if *storeDir != "" {
		// An unopenable store directory degrades to a memory-only cache with
		// a warning: the run still completes, it just cannot persist.
		cache, warn := store.OpenTiered(*storeDir, 0)
		if warn != nil {
			fmt.Fprintf(os.Stderr, "fusesim: warning: %v; continuing without the persistent store\n", warn)
		}
		cfg.Cache = cache
	}
	runner := engine.New(cfg)
	outcomes, err := runner.RunBatch(ctx, jobs)
	if err != nil {
		fatalf("%v", err)
	}
	if *storeDir != "" {
		fmt.Fprintf(os.Stderr, "[store %s: %d loaded, %d simulated]\n",
			*storeDir, runner.StoreHits(), runner.Executed())
	}

	for i, o := range outcomes {
		fmt.Print(o.Result.String())
		if *showEnergy {
			fmt.Print(energy.FromResult(o.Result, jobs[i].GPUConfig()).String())
		}
		if i < len(outcomes)-1 {
			fmt.Println()
		}
	}
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// flushCPUProfile is set while a CPU profile is being recorded so that
// fatalf can flush it before exiting (os.Exit skips deferred calls).
var flushCPUProfile = func() {}

// writeMemProfile records an allocation profile after a GC settles the heap.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("-memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live + cumulative allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatalf("-memprofile: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fusesim: "+format+"\n", args...)
	flushCPUProfile()
	os.Exit(1)
}

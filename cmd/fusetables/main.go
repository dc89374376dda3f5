// Command fusetables regenerates the paper's tables and figures as text
// tables. Each experiment is identified by the paper artefact it reproduces
// (fig1, fig3, fig6, fig7, table1, table2, fig13, fig14, fig15, fig16, fig17,
// fig18, fig19, fig20, table3).
//
// The simulations behind the selected experiments are declared up front and
// executed concurrently on the engine's worker pool; experiments sharing
// runs (figures 13-17 share the full six-kind matrix) are deduplicated, and
// the printed tables are byte-identical to a serial (-parallel 1) run.
//
// Usage:
//
//	fusetables -exp fig13                 # one figure, default scale
//	fusetables -exp all -scale full       # everything, full 15-SM GPU
//	fusetables -exp fig14 -workloads ATAX,BICG,GESUM
//	fusetables -exp all -parallel 8 -timeout 10m -progress
//	fusetables -exp fig13 -store ~/.cache/fuse  # persist results; reruns are warm
//	fusetables -exp fig13 -workloadfile my.json -workloads ATAX,mykernel
//
// -workloadfile registers the custom profiles and phased workloads of a
// workload file (see the trace package); name them in -workloads to include
// them in a figure. The default workload sets stay pinned to the paper's 21
// benchmarks.
//
// With -store, completed simulations are persisted to a content-addressed
// result store shared with fusesim and fuseserve; a second run of the same
// experiment reads everything back ("[store ...: N loaded, 0 simulated]" on
// stderr) and renders byte-identical tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fuse/internal/dram"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/store"
	"fuse/internal/trace"
)

func main() {
	var (
		expName   = flag.String("exp", "all", "experiment to run (fig1...fig20, table1...table3, 'backends', or 'all')")
		scaleName = flag.String("scale", "bench", "simulation scale: quick, bench or full")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the experiment's own set)")
		timing    = flag.Bool("time", false, "print wall-clock time per experiment")
		parallel  = flag.Int("parallel", 0, "number of concurrent simulations (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		progress  = flag.Bool("progress", false, "print per-simulation progress to stderr")
		storeDir  = flag.String("store", "", "persistent result-store directory shared with fusesim/fuseserve (empty = no store)")
		backend   = flag.String("backend", "", "run every experiment on this memory backend (GDDR5, GDDR5X, HBM2, STT-MRAM; empty = each GPU model's default)")
		workFile  = flag.String("workloadfile", "", "workload file (JSON) of custom profiles and phased workloads to register; use -workloads to include them in a figure")
	)
	flag.Parse()

	if *workFile != "" {
		names, err := trace.LoadWorkloadFile(*workFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusetables: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[workloads %s: registered %s]\n", *workFile, strings.Join(names, ", "))
	}

	if *backend != "" {
		if _, err := dram.BackendByName(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "fusetables: %v\n", err)
			os.Exit(1)
		}
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusetables: %v\n", err)
		os.Exit(1)
	}

	var subset []string
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			if w = strings.TrimSpace(w); w != "" {
				subset = append(subset, w)
			}
		}
	}

	names := experiments.AllExperiments()
	if *expName != "all" {
		names = []string{*expName}
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
		// a warning: the tables still render, they just cannot persist.
		cache, warn := store.OpenTiered(*storeDir, 0)
		if warn != nil {
			fmt.Fprintf(os.Stderr, "fusetables: warning: %v; continuing without the persistent store\n", warn)
		}
		cfg.Cache = cache
	}
	if *progress {
		cfg.Progress = func(p engine.Progress) {
			status := "done"
			if p.Err != nil {
				status = "FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", p.Done, p.Total, p.Job, status)
		}
	}
	runner := engine.New(cfg)
	matrix := experiments.NewMatrixRunner(scale, runner)
	matrix.SetBackend(*backend)

	// Pre-warm the whole selection in one batch: the engine deduplicates the
	// jobs shared between experiments and fills the cache in parallel, so
	// the per-experiment table builds below are pure cache reads.
	start := time.Now()
	if err := matrix.Prewarm(ctx, names, subset); err != nil {
		fmt.Fprintf(os.Stderr, "fusetables: %v\n", err)
		os.Exit(1)
	}
	if *storeDir != "" {
		// The summary line is the machine-checkable warm/cold indicator: a
		// fully warm run reports "0 simulated".
		fmt.Fprintf(os.Stderr, "[store %s: %d loaded, %d simulated]\n",
			*storeDir, runner.StoreHits(), runner.Executed())
	}
	if *timing {
		fmt.Printf("[pre-warm: %d simulations on %d workers in %v]\n\n",
			matrix.Runs(), runner.Workers(), time.Since(start).Round(time.Millisecond))
	}

	for _, name := range names {
		expStart := time.Now()
		table, err := experiments.RunContext(ctx, matrix, name, subset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusetables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		if *timing {
			fmt.Printf("[%s took %v, %d simulations cached]\n\n", name, time.Since(expStart).Round(time.Millisecond), matrix.Runs())
		} else {
			fmt.Println()
		}
	}
}

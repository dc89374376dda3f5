// Command fuseserve is the HTTP front door of the simulation service: it
// executes simulation batches on the concurrent engine, persists every result
// in the content-addressed store shared with fusesim/fusetables, and serves
// the paper's evaluation figures — warm requests are pure store reads and
// never simulate.
//
// Endpoints:
//
//	POST /v1/batch            run a batch of (kind, workload) simulations;
//	                          a "workloads" block defines custom profiles or
//	                          phased workloads inline (workload-file schema)
//	GET  /v1/result/{key}     fetch one stored result by content key
//	GET  /v1/figures/{13..17} render an evaluation figure as a text table
//	                          (optional ?workloads=ATAX,GEMM subset)
//	GET  /v1/figures/backends render the memory-backend sweep
//	GET  /v1/workloads        list the workload registry (builtin + custom)
//
// Usage:
//
//	fuseserve -addr :8080 -store /var/lib/fuse -scale bench
//	fuseserve -workloads my-workloads.json
//	curl -s localhost:8080/v1/figures/13
//	curl -s -X POST localhost:8080/v1/batch \
//	  -d '{"jobs":[{"kind":"Dy-FUSE","workload":"ATAX"}]}'
//	curl -s -X POST localhost:8080/v1/batch -d '{
//	  "workloads": {"profiles": [{"name": "mlstress", "apki": 120,
//	    "mix": {"wm": 0.35, "readIntensive": 0.25, "worm": 0.3, "woro": 0.1},
//	    "workingSetBlocks": 420, "irregular": 0.4, "wormReuse": 3}]},
//	  "jobs": [{"kind": "Dy-FUSE", "workload": "mlstress"}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/dram"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/store"
	"fuse/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		scaleName   = flag.String("scale", "bench", "simulation scale: quick, bench or full")
		storeDir    = flag.String("store", "", "persistent result-store directory shared with fusesim/fusetables (empty = memory only)")
		parallel    = flag.Int("parallel", 0, "number of concurrent simulations (0 = GOMAXPROCS); with -coordinator, the most jobs the whole fleet runs at once, so set it to the fleet's total pullers")
		timeout     = flag.Duration("timeout", 0, "per-request timeout (0 = no limit)")
		backend     = flag.String("backend", "", "default memory backend for batch jobs and figures (GDDR5, GDDR5X, HBM2, STT-MRAM; empty = each GPU model's default)")
		workFile    = flag.String("workloads", "", "workload file (JSON) of custom profiles and phased workloads to register at startup")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight requests on SIGINT/SIGTERM")
		maxInflight = flag.Int("maxinflight", 64, "max concurrent simulation-bearing requests before 503 + Retry-After (0 = unlimited)")
		memCap      = flag.Int("memcap", 65536, "memory cache-tier entry bound with LRU eviction (0 = unbounded)")
		coordMode   = flag.Bool("coordinator", false, "run as a fleet coordinator: queue batch jobs for registered fuseworkers to pull (jobs run locally while none are registered)")
		localN      = flag.Int("localworkers", 0, "coordinator mode: also spawn this many in-process workers over the loopback transport")
		lease       = flag.Duration("lease", cluster.DefaultLease, "coordinator mode: per-job lease; a job unheartbeated this long is re-dispatched")
	)
	flag.Parse()

	if *workFile != "" {
		names, err := trace.LoadWorkloadFile(*workFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuseserve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("fuseserve: registered workloads from %s: %s", *workFile, strings.Join(names, ", "))
	}

	if *backend != "" {
		if _, err := dram.BackendByName(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "fuseserve: %v\n", err)
			os.Exit(1)
		}
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuseserve: %v\n", err)
		os.Exit(1)
	}

	// The memory tier (LRU-bounded) serves repeat requests within this
	// process; the disk tier (when configured) makes results outlive it and
	// shares them with the CLI tools. A failed disk open degrades to
	// memory-only with a warning: a serving process with a broken store
	// directory still serves.
	cache, warn := store.OpenTiered(*storeDir, *memCap)
	if warn != nil {
		log.Printf("fuseserve: warning: %v; continuing with the in-memory cache only", warn)
	}

	// In coordinator mode the Runner's executor fans out to the fleet: the
	// Runner still deduplicates, probes the cache and writes results
	// through, but the simulation itself runs on whichever worker pulls the
	// job next. While no worker is registered the coordinator falls back to
	// local execution, so a lone coordinator serves exactly like a
	// single-process fuseserve. The Runner holds one of its -parallel slots
	// for the whole of each Coordinator.Execute, so -parallel caps how many
	// jobs the entire fleet runs at once.
	engCfg := engine.Config{Workers: *parallel, Cache: cache}
	var coord *cluster.Coordinator
	if *coordMode {
		coord = cluster.New(cluster.Config{Lease: *lease, LocalExec: engine.Execute})
		engCfg.Exec = coord.Execute
	}
	runner := engine.New(engCfg)
	app := newServer(serverConfig{
		scale:       scale,
		runner:      runner,
		results:     cache,
		health:      cache,
		timeout:     *timeout,
		backend:     *backend,
		maxInflight: *maxInflight,
		coord:       coord,
	})

	if *storeDir != "" {
		log.Printf("fuseserve: store %s, scale %s, %d workers, listening on %s",
			*storeDir, *scaleName, runner.Workers(), *addr)
	} else {
		log.Printf("fuseserve: in-memory store only, scale %s, %d workers, listening on %s",
			*scaleName, runner.Workers(), *addr)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: app,
		// Transport-level guards: the per-request -timeout only bounds the
		// simulation work after a request is parsed, so slow-sending and
		// idle clients are bounded here instead of pinning goroutines.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM starts a graceful drain: the listener closes, new
	// simulation requests are refused (503 via the draining flag), in-flight
	// ones get the drain deadline to finish, and a clean drain exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if coord != nil {
		defer coord.Close()
		if *localN > 0 {
			fleet, err := cluster.StartFleet(ctx, coord, *localN, engine.Execute)
			if err != nil {
				log.Fatalf("fuseserve: starting local workers: %v", err)
			}
			defer fleet.Stop()
			log.Printf("fuseserve: coordinator mode, %d in-process workers (lease %s)", *localN, *lease)
		} else {
			log.Printf("fuseserve: coordinator mode, waiting for fuseworkers (lease %s)", *lease)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// The listener failed before any signal (port in use, bad address).
		log.Fatalf("fuseserve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("fuseserve: shutdown signal received, draining (deadline %s)", *drain)
		app.beginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("fuseserve: drain deadline exceeded: %v", err)
			os.Exit(1)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("fuseserve: %v", err)
		}
		log.Printf("fuseserve: drained cleanly, exiting")
	}
}

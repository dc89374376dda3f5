// Command fuseworker is one node of the distributed simulation fleet: it
// registers with a fuseserve coordinator, pulls simulation jobs over HTTP,
// executes them through the same engine/store pipeline a single process
// uses, and streams results back.
//
// The coordinator's own Runner probes its result store before it queues a
// job, so a job reaches a worker only when the whole fleet has missed it.
// Workers pull from one FIFO queue, so a busy worker simply pulls less. Each
// worker also keeps a local cache (memory tier, optional disk tier) for the
// jobs it has run.
//
// Usage:
//
//	fuseworker -coordinator http://fuseserve-host:8080
//	fuseworker -coordinator http://fuseserve-host:8080 \
//	  -id rack3-node7 -store /var/lib/fuse -parallel 8
//
// SIGINT/SIGTERM stops pulling and abandons in-flight jobs; the
// coordinator's lease machinery re-dispatches them, so killing a worker
// mid-batch never changes (or loses) results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"fuse/internal/cluster"
	"fuse/internal/engine"
	"fuse/internal/store"
	"fuse/internal/trace"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL, e.g. http://host:8080 (required)")
		id          = flag.String("id", "", "worker identity, unique in the fleet (default host-pid)")
		storeDir    = flag.String("store", "", "persistent result-store directory for this node (empty = memory only)")
		parallel    = flag.Int("parallel", 0, "number of concurrent simulations, which is also the number of jobs pulled at once (0 = GOMAXPROCS)")
		retries     = flag.Int("retries", 1, "per-job retries on transient execution failures (0 = none)")
		memCap      = flag.Int("memcap", 65536, "memory cache-tier entry bound with LRU eviction (0 = unbounded)")
		workFile    = flag.String("workloads", "", "workload file (JSON) of custom profiles to register at startup; must match the coordinator's")
	)
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "fuseworker: -coordinator is required")
		os.Exit(2)
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	if *workFile != "" {
		names, err := trace.LoadWorkloadFile(*workFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuseworker: %v\n", err)
			os.Exit(1)
		}
		log.Printf("fuseworker: registered workloads from %s: %s", *workFile, strings.Join(names, ", "))
	}

	// Cache tiers, fastest first: memory, then disk (optional).
	cache, warn := store.OpenTiered(*storeDir, *memCap)
	if warn != nil {
		log.Printf("fuseworker: warning: %v; continuing without the disk tier", warn)
	}

	// Pulled jobs run through a full engine.Runner, so a worker gets the
	// same dedup, store write-through, retry and panic-containment pipeline
	// as a single-process fuseserve.
	runner := engine.New(engine.Config{
		Workers: *parallel,
		Cache:   cache,
		Retries: *retries,
	})

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: strings.TrimSuffix(*coordinator, "/"),
		ID:          *id,
		Exec:        runner.Get,
		Pullers:     runner.Workers(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuseworker: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("fuseworker: %s pulling from %s (%d parallel, GOMAXPROCS %d)",
		*id, *coordinator, runner.Workers(), runtime.GOMAXPROCS(0))
	err = w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("fuseworker: %v", err)
	}
	log.Printf("fuseworker: %s stopped cleanly", *id)
}

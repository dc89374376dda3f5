// Command fuseworker is one node of the distributed simulation fleet: it
// registers with a fuseserve coordinator, pulls simulation jobs over HTTP,
// runs each through engine.Execute, and streams results back — exactly what
// the in-process workers of `fuseserve -coordinator -localworkers N` do.
//
// The worker keeps no store. The coordinator's own Runner probes its result
// store before it queues a job (so a job reaches a worker only when the
// whole fleet has missed it) and writes every result back; the coordinator
// re-dispatches the jobs a stopped or lost worker held. A job that fails on
// a worker fails for good: simulations are deterministic, so a rerun would
// fail the same way. Workers pull from one FIFO queue, so a busy worker
// simply pulls less.
//
// Usage:
//
//	fuseworker -coordinator http://fuseserve-host:8080
//	fuseworker -coordinator http://fuseserve-host:8080 \
//	  -id rack3-node7 -parallel 8
//
// SIGINT/SIGTERM stops pulling, abandons in-flight jobs and tells the
// coordinator the worker is leaving, which re-dispatches them at once; a
// worker killed outright is caught by its leases instead. Either way,
// stopping a worker mid-batch never changes (or loses) results.
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
	"fuse/internal/trace"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL, e.g. http://host:8080 (required)")
		id          = flag.String("id", "", "worker identity, unique in the fleet (default host-pid)")
		parallel    = flag.Int("parallel", 0, "number of concurrent simulations, which is also the number of jobs pulled at once (0 = GOMAXPROCS)")
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

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: strings.TrimSuffix(*coordinator, "/"),
		ID:          *id,
		Exec:        engine.Execute,
		Pullers:     *parallel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuseworker: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("fuseworker: %s pulling from %s (%d parallel, GOMAXPROCS %d)",
		*id, *coordinator, *parallel, runtime.GOMAXPROCS(0))
	err = w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("fuseworker: %v", err)
	}
	log.Printf("fuseworker: %s stopped cleanly", *id)
}

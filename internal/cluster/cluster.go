// Package cluster is the distributed simulation fleet: a coordinator that
// queues simulation jobs for registered workers, and the worker loop that
// pulls, executes and acknowledges them.
//
// The design reuses the repository's existing primitives instead of invent-
// ing new ones: jobs on the wire are engine.Job values, and a worker runs
// each pulled job through engine.Execute, the executor a single process
// uses. Determinism therefore comes for free — a simulation result is a pure
// function of the job, so any assignment of jobs to workers (including
// re-dispatch after a worker crash) renders byte-identical figure tables.
//
// Topology:
//
//	client ── POST /v1/batch ──▶ fuseserve (-coordinator)
//	                               │  engine.Runner (dedup, store)
//	                               ▼  Exec = Coordinator.Execute
//	                            Coordinator ── one FIFO queue
//	                               ▲▼ /cluster/v1/{register,pull,heartbeat,result,leave}
//	                            fuseworker × N, or -localworkers N in process
//	                               each puller: engine.Execute, nothing else
//
// The front-end Runner probes the store before it calls Execute and writes
// every result back after it, so a job reaches the coordinator only when the
// whole fleet has missed it. The coordinator keeps one FIFO queue and hands
// its oldest job to whichever worker pulls next; a busy worker simply pulls
// less. Every dispatched job carries a lease: the worker renews it by
// heartbeat while executing, and a job whose lease expires — or whose worker
// leaves or misses its liveness window — goes back on the queue. Duplicate
// executions are harmless (first result wins; results are identical by
// construction). Re-dispatch is the fleet's only recovery: a job that fails
// on a worker fails for good, since re-running a deterministic simulation
// fails the same way. Workers keep no store.
//
// Everything speaks plain HTTP+JSON, and the Loopback transport dispatches
// the same protocol in-process (no sockets), so the whole fleet — including
// chaos tests that kill workers mid-batch — runs inside `go test ./...`.
package cluster

import (
	"time"

	"fuse/internal/engine"
	"fuse/internal/sim"
)

// Protocol paths, all mounted under the coordinator's handler. fuseserve
// serves them next to its /v1 API when -coordinator is set.
const (
	pathRegister  = "/cluster/v1/register"
	pathPull      = "/cluster/v1/pull"
	pathHeartbeat = "/cluster/v1/heartbeat"
	pathResult    = "/cluster/v1/result"
	pathLeave     = "/cluster/v1/leave"
)

// Task is one dispatched job on the wire. ID is the coordinator's dispatch
// identity (unique per submission).
type Task struct {
	ID  uint64     `json:"id"`
	Job engine.Job `json:"job"`
}

// registerRequest announces a worker. Re-registering an existing ID resets
// its liveness.
type registerRequest struct {
	Worker string `json:"worker"`
}

// registerResponse hands the worker its operating intervals: how long a
// pull long-polls before returning empty, and the lease the coordinator
// holds per dispatched task (the worker heartbeats at a third of it).
type registerResponse struct {
	LeaseMillis int64 `json:"leaseMillis"`
	PollMillis  int64 `json:"pollMillis"`
}

// pullRequest asks for one task; the coordinator long-polls up to its poll
// timeout before answering 204 No Content.
type pullRequest struct {
	Worker string `json:"worker"`
}

// heartbeatRequest renews the worker's liveness and the leases of the tasks
// it is still executing.
type heartbeatRequest struct {
	Worker string   `json:"worker"`
	Tasks  []uint64 `json:"tasks"`
}

// resultRequest reports one finished task — result or error — and doubles as
// the acknowledgement that retires its lease.
type resultRequest struct {
	Worker string      `json:"worker"`
	Task   uint64      `json:"task"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// leaveRequest announces a clean stop: the coordinator drops the worker and
// puts the tasks it held back in play at once, as it does when a worker
// misses its liveness window.
type leaveRequest struct {
	Worker string `json:"worker"`
}

// Default coordinator intervals (see Config).
const (
	DefaultLease       = 15 * time.Second
	DefaultPollTimeout = 2 * time.Second
)

// maxAttempts bounds the dispatches per task (first dispatch plus
// re-dispatches); a task that exhausts it fails with an error instead of
// cycling forever.
const maxAttempts = 3

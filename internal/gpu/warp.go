// Package gpu models the streaming multiprocessors of the GPU: warps, the
// greedy-then-oldest warp scheduler, the single-ported load/store path into
// the L1D cache, and the per-SM performance accounting (issued instructions,
// stall breakdown). Each SM keeps its own clock and is the only writer of its
// cycle ledger: SM.Cycle charges one cycle, SM.CatchUp the cycles a sleeping
// SM skipped, both through one charge method, and Stats hands out a copy.
// Together with the memory hierarchy packages it forms the cycle-level
// simulator that stands in for GPGPU-Sim in the paper's methodology.
package gpu

import "fmt"

// WarpState is the scheduling state of a warp.
type WarpState uint8

const (
	// WarpReady means the warp can issue an instruction this cycle.
	WarpReady WarpState = iota
	// WarpWaiting means the warp is blocked until its wake-up cycle (short
	// execution latency or an L1D hit in flight).
	WarpWaiting
	// WarpWaitingData means the warp is blocked on an outstanding memory
	// fill and will be woken explicitly when the fill arrives.
	WarpWaitingData
	// WarpDone means the warp has retired its entire instruction budget.
	WarpDone
)

// String implements fmt.Stringer.
func (s WarpState) String() string {
	switch s {
	case WarpReady:
		return "ready"
	case WarpWaiting:
		return "waiting"
	case WarpWaitingData:
		return "waiting-data"
	case WarpDone:
		return "done"
	default:
		return fmt.Sprintf("WarpState(%d)", uint8(s))
	}
}

// Warp is one 32-thread SIMT group resident on an SM. Its scheduling state
// changes only through SM methods, which keep the SM's ready and timed-wait
// sets in step with it.
type Warp struct {
	// ID is the warp index within its SM.
	ID int
	// State is the current scheduling state.
	State WarpState
	// WakeAt is the cycle at which a WarpWaiting warp becomes ready again.
	WakeAt int64
	// Issued counts the dynamic instructions the warp has issued.
	Issued uint64
	// Budget is the number of instructions the warp executes before it is
	// done.
	Budget uint64
	// PendingBlock is the block address the warp is waiting on when in
	// WarpWaitingData (zero otherwise).
	PendingBlock uint64
	// slot is the warp's place in its SM's issue order (see SM.order).
	slot int
}

// Done reports whether the warp has retired its budget.
func (w *Warp) Done() bool { return w.State == WarpDone }

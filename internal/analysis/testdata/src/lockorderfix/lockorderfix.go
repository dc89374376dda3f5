// Package lockorderfix is the lockorder analyzer fixture: seeded violations
// of all three rules — a lock with no unlock, blocking work and channel
// operations under a held mutex, and a pair of mutexes acquired in both
// relative orders — next to a clean lock/defer-unlock pattern.
package lockorderfix

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	ch  = make(chan int)
)

// fetch stands in for the engine's simulation-running entry points.
//
//fuselint:blocking waits on a full simulation
func fetch() int { return 1 }

// leak locks and forgets to unlock on any path.
func leak() {
	muA.Lock() // want `muA is locked in leak but never unlocked in the same function`
	_ = 1
}

// blockedUnderLock does slow work while holding the mutex.
func blockedUnderLock() {
	muA.Lock()
	_ = fetch() // want `call to blocking fetch while holding muA`
	ch <- 1     // want `channel send while holding muA`
	<-ch        // want `channel receive while holding muA`
	muA.Unlock()
}

// relock releases and re-acquires the mutex: the send under the second
// acquisition is one finding, not one per acquisition.
func relock() {
	muA.Lock()
	muA.Unlock()
	muA.Lock()
	ch <- 1 // want `channel send while holding muA`
	muA.Unlock()
}

// abOrder acquires A then B...
func abOrder() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock() // want `inconsistent lock order: .*muB is acquired while holding .*muA here, but the reverse order occurs at`
	defer muB.Unlock()
}

// ...while baOrder acquires B then A: one of the two orders has to go.
func baOrder() {
	muB.Lock()
	defer muB.Unlock()
	muA.Lock()
	defer muA.Unlock()
}

// clean is the pattern the serving layer uses: lock, defer unlock, fast
// straight-line section, no blocking work.
func clean() int {
	muA.Lock()
	defer muA.Unlock()
	return 2
}

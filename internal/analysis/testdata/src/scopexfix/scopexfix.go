// Package scopexfix is the directive-scoping fixture: it calls lib's Drain,
// whose declaration carries a directive, and declares a function of the same
// shape without one, so a scan of this package must find none.
package scopexfix

import "fuse/internal/analysis/testdata/src/scopexfix/lib"

// Run drains ch twice over: once through lib and once through count.
func Run(ch chan int) int { return lib.Drain(ch) + count(ch) }

// count counts the values left in ch, like lib.Drain.
func count(ch chan int) int {
	n := 0
	for range ch {
		n++
	}
	return n
}

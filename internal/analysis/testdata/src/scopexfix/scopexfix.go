// Package scopexfix is the directive-scoping fixture: it calls lib's Drain,
// whose loop carries a directive, and runs a loop of the same shape without
// one, so a scan of this package must find none.
package scopexfix

import "fuse/internal/analysis/testdata/src/scopexfix/lib"

// Run drains ch twice over: once through lib and once here.
func Run(ch chan int) int {
	n := lib.Drain(ch)
	for range ch {
		n++
	}
	return n
}

// Package lib is the subpackage side of the scopexfix fixture: it declares
// the fixture's only directive, a trailing one on a loop header.
package lib

// Drain counts the values left in a channel its caller has closed.
func Drain(ch chan int) int {
	n := 0
	for range ch { //fuselint:noctx the caller closes ch before Drain runs
		n++
	}
	return n
}

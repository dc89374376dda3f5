// Package lib is the subpackage side of the scopexfix fixture: it declares
// the fixture's only directive, a trailing one on a function's declaration
// line.
package lib

// Drain counts the values left in a channel until its caller closes it.
func Drain(ch chan int) int { //fuselint:blocking waits for the caller to close ch
	n := 0
	for range ch {
		n++
	}
	return n
}

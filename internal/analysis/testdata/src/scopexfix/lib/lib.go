// Package lib is the subpackage side of the scopexfix fixture: it declares
// the fixture's only directive, a trailing one on a struct field.
package lib

// Job is a store-key-like struct with one execution-only field.
type Job struct {
	Name    string
	Workers int //fuselint:execonly the pool size never changes results
	Seed    uint64
}

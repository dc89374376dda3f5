// Package scopexfix is the directive-scoping fixture: it embeds lib's Job,
// whose field carries a directive, but declares no directive of its own, so
// a scan of this package must find none.
package scopexfix

import "fuse/internal/analysis/testdata/src/scopexfix/lib"

// Run wraps a lib.Job with a field of the same name as the annotated one.
type Run struct {
	Job     lib.Job
	Workers int
}

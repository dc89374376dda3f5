// Package detmapfix is a detmap analyzer fixture: each `want` comment pins
// one finding the analyzer must produce, and the unannotated clean patterns
// pin what it must accept.
package detmapfix

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Bad: raw map iteration, order observable.
func SumKeysBad(m map[string]int) []string {
	var keys []string
	for k := range m { // want `iteration over map m has nondeterministic order`
		keys = append(keys, k)
		if len(keys) > 100 {
			break
		}
	}
	return keys
}

// Good: the collect-then-sort idiom.
func SumKeysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Good: justified directive.
func MaxValue(m map[string]int) int {
	max := 0
	//fuselint:ordered max reduction, order-insensitive
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// Bad: a directive with no justification is itself a finding.
func Unjustified(m map[string]int) int {
	n := 0
	//fuselint:ordered
	for range m { // want `//fuselint:ordered needs a justification`
		n++
	}
	return n
}

// Bad: wall clock, global randomness and environment reads in core scope.
func Nondet() int64 {
	t := time.Now().UnixNano()         // want `time.Now in the simulation core`
	t += int64(rand.Intn(10))          // want `global math/rand.Intn in the simulation core`
	if os.Getenv("FUSE_DEBUG") != "" { // want `os.Getenv in the simulation core`
		t++
	}
	return t
}

// Good: an explicitly seeded generator is deterministic.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// BenchmarkWakeTable measures one sparse-engine step of the SM wake table
// at the Fermi (15) and Volta (84) SM counts: jump to the earliest wake
// cycle, pop every SM due then (popDue) and put each back at a later wake
// cycle (update), as cycleSM does.
func BenchmarkWakeTable(b *testing.B) {
	for _, n := range []int{15, 84} {
		b.Run(fmt.Sprintf("sms=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 2))
			delays := make([]int64, 4096)
			for i := range delays {
				delays[i] = 1 + int64(rng.IntN(32))
			}
			var w smWakeTable
			w.init(n)
			for i := 0; i < n; i++ {
				w.update(i, delays[i])
			}
			due := make([]uint64, smSetWords(n))
			k := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := w.minAt()
				w.popDue(t, due)
				forEachSM(due, func(sm int) {
					w.update(sm, t+delays[k&4095])
					k++
				})
			}
		})
	}
}

package bench

import (
	"testing"

	"repro/internal/tce"
)

// BenchmarkTCEWorld is one fig8a sweep point end to end — a 4-node world
// (96 ranks) built, its three 816x816 arrays created and filled, every
// CCSD task fetched, contracted and accumulated, the world closed — under
// the two deployments that bracket the figure. With -benchmem, B/op is
// what a world costs the allocator; from the second iteration on its
// window memory is the previous iteration's.
func BenchmarkTCEWorld(b *testing.B) {
	const nodes = 4
	p := tceParamsFor(nodes, 48, tce.PhaseCCSD)
	for _, d := range tceDeployments()[:2] {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ms := runNWChem(d, nodes, p, 42); ms <= 0 {
					b.Fatalf("world ran for %v ms of virtual time", ms)
				}
			}
		})
	}
}

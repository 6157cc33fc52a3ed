package ga

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// BenchmarkGAPatch measures the host cost of one blocking patch
// operation over Casper: a 48x48 patch of a 192x192 array on 12 user
// processes (two nodes, two ghosts each), straddling four owners, so
// every operation packs or unpacks vector pieces. ns/op is per patch
// operation; allocs/op shows what the staging buffers leave.
func BenchmarkGAPatch(b *testing.B) {
	for _, op := range []string{"get", "acc"} {
		op := op
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			const batch = 64
			rounds := (b.N + batch - 1) / batch
			cfg := gaConfig(16, 8)
			cfg.Validate = false
			for r := 0; r < rounds; r++ {
				_, err := mpi.Run(cfg, func(rk *mpi.Rank) {
					p, ghost := core.Init(rk, core.Config{NumGhosts: 2})
					if ghost {
						return
					}
					a := MustCreate(p, "bench", 192, 192)
					a.Fill(1)
					if p.Rank() == 0 {
						buf := make([]float64, 48*48)
						for i := 0; i < batch; i++ {
							if op == "get" {
								a.Get(40, 88, 40, 88, buf)
							} else {
								a.Acc(40, 88, 40, 88, buf, 0.5)
							}
						}
					}
					a.Sync()
					a.Destroy()
					p.Finalize()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*rounds)/float64(b.N), "ops/iter")
		})
	}
}

package ga

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// BenchmarkGAPatch measures the host cost of one blocking array
// operation over Casper on 12 user processes (two nodes, two ghosts
// each), on a 192x192 array in 64x48 tiles. get and acc move a 48x48
// patch that straddles four owners, so every operation packs or unpacks
// vector pieces through the staging buffer (acc at alpha 0.5);
// get-rows and acc-rows move a 48x48 patch one tile column wide over two
// row owners, whose full-width pieces go straight to and from the
// caller's buffer (acc-rows at alpha 1). fill is one collective Fill of
// the array and create-destroy one collective Create/Destroy of it — the
// window-memory path (rank 0 alone drives the patch operations; every
// rank takes part in the other two). ns/op is per operation; allocs/op
// shows what the staging buffers leave.
func BenchmarkGAPatch(b *testing.B) {
	for _, op := range []string{"get", "acc", "get-rows", "acc-rows", "fill", "create-destroy"} {
		op := op
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			const batch = 64
			rounds := (b.N + batch - 1) / batch
			cfg := gaConfig(16, 8)
			cfg.Validate = false
			for r := 0; r < rounds; r++ {
				w, err := mpi.Run(cfg, func(rk *mpi.Rank) {
					p, ghost := core.Init(rk, core.Config{NumGhosts: 2})
					if ghost {
						return
					}
					a := MustCreate(p, "bench", 192, 192)
					a.Fill(1)
					switch {
					case op == "fill":
						for i := 0; i < batch; i++ {
							a.Fill(float64(i))
						}
					case op == "create-destroy":
						for i := 0; i < batch; i++ {
							MustCreate(p, "scratch", 192, 192).Destroy()
						}
					case p.Rank() == 0:
						buf := make([]float64, 48*48)
						for i := 0; i < batch; i++ {
							switch op {
							case "get":
								a.Get(40, 88, 40, 88, buf)
							case "acc":
								a.Acc(40, 88, 40, 88, buf, 0.5)
							case "get-rows":
								a.Get(40, 88, 48, 96, buf)
							case "acc-rows":
								a.Acc(40, 88, 48, 96, buf, 1)
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
				w.Close()
			}
			b.ReportMetric(float64(batch*rounds)/float64(b.N), "ops/iter")
		})
	}
}

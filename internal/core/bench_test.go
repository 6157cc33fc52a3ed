package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// BenchmarkCasperWinAllocate measures the host cost of Casper window
// construction: per iteration one world of the given node count (16
// users + 2 ghosts per node) deploys Casper and creates and frees four
// windows. ns/op and allocs/op are per world; they should grow with the
// rank count, not with its square (see the scaling guard in
// meta_test.go). us/rank-window is the per-rank, per-window figure.
func BenchmarkCasperWinAllocate(b *testing.B) {
	const ppn, windows = 18, 4
	for _, nodes := range []int{4, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			mcfg := mpi.Config{
				Machine: cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
				N:       nodes * ppn, PPN: ppn, Net: netmodel.CrayXC30(), Seed: 1,
			}
			for i := 0; i < b.N; i++ {
				_, err := mpi.Run(mcfg, func(r *mpi.Rank) {
					p, ghost := Init(r, Config{NumGhosts: 2})
					if ghost {
						return
					}
					for k := 0; k < windows; k++ {
						win, _ := p.WinAllocate(p.CommWorld(), 64, mpi.Info{InfoEpochsUsed: EpochLockAll})
						win.Free()
					}
					p.Finalize()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			perRankWin := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nodes*ppn*windows)
			b.ReportMetric(perRankWin/1e3, "us/rank-window")
		})
	}
}

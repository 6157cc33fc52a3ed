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

// BenchmarkCasperLockAllEpoch measures the host cost of the Fig. 6(a)
// epoch: per iteration every one of 32 users (2 nodes) opens a lockall
// epoch, accumulates once to every other user and closes it. With lock
// epochs declared too (the default hints) the lockall becomes a lock and
// an unlock on every ghost of every target's node, of which one in
// `ghosts` carries the operation; ns/op should grow far slower than the
// ghost count. ns/lock-call divides by those calls.
func BenchmarkCasperLockAllEpoch(b *testing.B) {
	const nodes, usersPerNode = 2, 16
	one := mpi.PutFloat64s([]float64{1})
	for _, ghosts := range []int{2, 8} {
		b.Run(fmt.Sprintf("ghosts=%d", ghosts), func(b *testing.B) {
			b.ReportAllocs()
			ppn := usersPerNode + ghosts
			mcfg := mpi.Config{
				Machine: cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
				N:       nodes * ppn, PPN: ppn, Net: netmodel.CrayXC30(), Seed: 1,
			}
			_, err := mpi.Run(mcfg, func(r *mpi.Rank) {
				p, ghost := Init(r, Config{NumGhosts: ghosts})
				if ghost {
					return
				}
				c := p.CommWorld()
				win, _ := p.WinAllocate(c, 8, nil)
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer() // one process at a time runs: the epochs start now
				}
				for i := 0; i < b.N; i++ {
					win.LockAll(mpi.AssertNone)
					for tg := 0; tg < c.Size(); tg++ {
						if tg != c.Rank() {
							win.Accumulate(one, tg, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
						}
					}
					win.UnlockAll()
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.StopTimer()
				}
				win.Free()
				p.Finalize()
			})
			if err != nil {
				b.Fatal(err)
			}
			users := nodes * usersPerNode
			calls := float64(b.N) * float64(users*(users-1)*ghosts*2)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/lock-call")
		})
	}
}

// BenchmarkBackloggedTarget is mpi's benchmark of the same name through
// Casper: 40 users each send 1024 accumulates to user 0, whose node's 4
// ghosts service them (static rank binding sends them all to one). One
// world per iteration; ns/AM divides its host time by the operations.
func BenchmarkBackloggedTarget(b *testing.B) {
	const origins, ops, ghosts, ppn = 40, 1024, 4, 25
	b.Run(fmt.Sprintf("origins=%d/ops=%d", origins, ops), func(b *testing.B) {
		b.ReportAllocs()
		one := mpi.PutFloat64s([]float64{1})
		mcfg := mpi.Config{
			Machine: cluster.Machine{Nodes: 2, CoresPerNode: ppn, NUMAPerNode: 1},
			N:       2 * ppn, PPN: ppn, Net: netmodel.CrayXC30(), Seed: 1,
		}
		for i := 0; i < b.N; i++ {
			var sum float64
			w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
				p, ghost := Init(r, Config{NumGhosts: ghosts})
				if ghost {
					return
				}
				c := p.CommWorld()
				win, buf := p.WinAllocate(c, 8, nil)
				c.Barrier()
				if me := c.Rank(); me >= 1 && me <= origins {
					win.Lock(0, mpi.LockShared, mpi.AssertNone)
					for i := 0; i < ops; i++ {
						win.Accumulate(one, 0, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
					}
					win.Unlock(0)
				}
				c.Barrier()
				if c.Rank() == 0 {
					sum = mpi.GetFloat64s(buf)[0]
				}
				win.Free()
				p.Finalize()
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum != origins*ops {
				b.Fatalf("user 0 holds %v, want %d", sum, origins*ops)
			}
			w.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(origins*ops), "ns/AM")
	})
}

package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// independentSummary aggregates a serial world's counters without the
// counter table: the two peaks take the max over ranks, the world-level
// rows come from world state, every other row sums over ranks.
func independentSummary(t *testing.T, w *mpi.World) mpi.WorldSummary {
	t.Helper()
	fs := w.FaultStats()
	world := map[mpi.Counter]int64{
		mpi.FaultDrops:    fs.Drops,
		mpi.FaultDelays:   fs.Delays,
		mpi.FaultDups:     fs.Dups,
		mpi.FaultCorrupts: fs.Corrupts,
		mpi.RanksFailed:   int64(w.FailedCount()),
		mpi.P2PLost:       w.P2PLost(),
	}
	s := mpi.WorldSummary{Ranks: w.Config().N, EndTime: w.Engine().Now()}
	for i := 0; i < w.Config().N; i++ {
		st := w.RankByID(i).Stats()
		for c, v := range st {
			c := mpi.Counter(c)
			switch _, isWorld := world[c]; {
			case isWorld:
				if v != 0 {
					t.Fatalf("rank %d carries world-level row %v = %d", i, c, v)
				}
			case c == mpi.PeakDepth || c == mpi.PeakQueueResidency:
				s.Counters[c] = max(s.Counters[c], v)
			default:
				s.Counters[c] += v
			}
		}
	}
	for c, v := range world {
		s.Counters[c] = v
	}
	return s
}

// overloadWorld is a Casper world whose rebalancer migrates: on one node
// of 4 users and 2 ghosts, origins 2 and 3 hammer targets 0 and 2, both
// statically bound to the first ghost, so the sweeps move one of them to
// the idle second ghost (see overload_test.go in package core).
func overloadWorld(t *testing.T) *mpi.World {
	mcfg := mpi.Config{
		Machine: cluster.Machine{Nodes: 1, CoresPerNode: 24, NUMAPerNode: 2},
		N:       6, PPN: 6, Net: netmodel.CrayXC30(), Seed: 11,
	}
	ccfg := core.Config{NumGhosts: 2, Overload: &core.OverloadConfig{
		Interval:         2 * sim.Microsecond,
		MigrateThreshold: sim.Nanosecond,
	}}
	w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		p, ghost := core.Init(r, ccfg)
		if ghost {
			return
		}
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 64, mpi.Info{core.InfoEpochsUsed: core.EpochLockAll})
		c.Barrier()
		win.LockAll(mpi.AssertNone)
		if p.Rank() >= 2 {
			for i := 0; i < 300; i++ {
				for _, tgt := range []int{0, 2} {
					win.Accumulate(mpi.PutFloat64s([]float64{1}), tgt, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				p.Compute(150 * sim.Nanosecond)
				if i%25 == 24 {
					win.FlushAll()
				}
			}
		}
		win.UnlockAll()
		c.Barrier()
		win.Free()
		p.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSummaryMatchesIndependentAggregation holds World.Summary, row by
// row, against an aggregation that does not use the counter table, on
// three worlds that between them move every family of rows: a lossy
// Casper world whose ghost crashes, a flow-controlled world whose origins
// stall on credits, and a Casper world whose rebalancer migrates.
func TestSummaryMatchesIndependentAggregation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(t *testing.T) *mpi.World
		moved []mpi.Counter // rows the world must make nonzero
	}{
		{"drop25-ghost-crash", func(t *testing.T) *mpi.World {
			plan := fault.Plan{DropRate: 0.25, Crashes: []fault.Crash{
				{Rank: tcUsers/2 + 1, At: sim.Time(60 * sim.Microsecond)}, // ghost 3, mid-dwell
			}}
			return timerChainRun(t, 1, &plan, false).world
		}, []mpi.Counter{mpi.FaultDrops, mpi.Retransmits, mpi.RanksFailed, mpi.Suspects, mpi.Rebinds, mpi.Redirected}},
		{"flow-stall", func(t *testing.T) *mpi.World {
			return mpi.CreditStorm(t, &mpi.FlowConfig{Credits: 2}, 64)
		}, []mpi.Counter{mpi.CreditStalls, mpi.CreditStallTime, mpi.PeakDepth, mpi.SoftwareAMs}},
		{"overload-migrate", overloadWorld,
			[]mpi.Counter{mpi.Migrations, mpi.Redirected, mpi.SoftwareAMs, mpi.PeakQueueResidency}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world(t)
			got, want := w.Summary(), independentSummary(t, w)
			for c := range mpi.NumCounters {
				if got.Counters[c] != want.Counters[c] {
					t.Errorf("%v: Summary %d, independent %d", c, got.Counters[c], want.Counters[c])
				}
			}
			if got != want {
				t.Fatalf("summaries differ:\ngot  %v\nwant %v", got, want)
			}
			for _, c := range tc.moved {
				if got.Counters[c] == 0 {
					t.Errorf("%v stayed zero: the world does not exercise it (%v)", c, got)
				}
			}
		})
	}
}

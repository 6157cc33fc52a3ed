package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Topology shared by these tests: one node, ppn 6, 2 ghosts. All six
// locals land in one NUMA domain, so the ghosts take the two highest
// locals {4, 5} and bindings round-robin over the node's users: user
// comm ranks 0 and 2 are statically bound to the first ghost (internal
// rank 4) and comm ranks 1 and 3 to the second (internal rank 5). A
// "hot pair" sharing one ghost is therefore {0, 2}.
func overloadCfg(interval sim.Duration) *OverloadConfig {
	return &OverloadConfig{
		Interval:         interval,
		MigrateThreshold: sim.Nanosecond,
	}
}

func TestRebindDefersInsideOpenLockEpoch(t *testing.T) {
	// Every origin funnels accumulates at target 0 inside one long
	// explicit lock epoch. The sweeps see a hot ghost and a migratable
	// target, but the open epoch pins the binding (the epoch's locks
	// live on the current ghost), so the rebalancer must defer.
	var sum float64
	w := casperRun(t, casperConfig(6, 6), Config{
		NumGhosts: 2,
		Overload:  overloadCfg(2 * sim.Microsecond),
	}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 64, nil)
		c.Barrier()
		if p.Rank() != 0 {
			win.Lock(0, mpi.LockShared, mpi.AssertNone)
			for i := 0; i < 150; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
				p.Compute(200 * sim.Nanosecond)
			}
			win.Unlock(0)
		} else {
			p.Compute(100 * sim.Microsecond)
		}
		c.Barrier()
		if p.Rank() == 0 {
			sum = mpi.GetFloat64s(buf)[0]
		}
	})
	st := w.Summary()
	if st.Counters[mpi.DeferredLock] == 0 {
		t.Fatalf("rebalancer never deferred to the open lock epoch: %+v", st)
	}
	if want := float64(3 * 150); sum != want {
		t.Fatalf("target saw %v, want %v", sum, want)
	}
}

func TestAllGhostsSaturatedDegradesNotDeadlocks(t *testing.T) {
	// With a saturation threshold any queue at all exceeds, the node's
	// both ghosts count as saturated on the first loaded sweep and the
	// node must degrade to target-side progress — and still finish with
	// correct data rather than wedge.
	var got [4]float64
	w := casperRun(t, casperConfig(6, 6), Config{
		NumGhosts: 2,
		Overload: &OverloadConfig{
			Interval:          2 * sim.Microsecond,
			SaturateThreshold: sim.Nanosecond,
			MigrateThreshold:  sim.Second, // isolate: no migrations here
		},
	}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 64, mpi.Info{InfoEpochsUsed: "lockall"})
		c.Barrier()
		win.LockAll(mpi.AssertNone)
		for i := 0; i < 120; i++ {
			for tgt := 0; tgt < 4; tgt++ {
				if tgt == p.Rank() {
					continue
				}
				win.Accumulate(mpi.PutFloat64s([]float64{1}), tgt, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			if i%20 == 19 {
				win.FlushAll()
			}
		}
		win.UnlockAll()
		c.Barrier()
		got[p.Rank()] = mpi.GetFloat64s(buf)[0]
		c.Barrier()
	})
	st := w.Summary()
	if st.Counters[mpi.Saturations] == 0 {
		t.Fatalf("node never degraded despite saturated ghosts: %+v", st)
	}
	if st.Counters[mpi.Migrations] != 0 {
		t.Fatalf("unexpected migrations with a prohibitive threshold: %+v", st)
	}
	for rk, v := range got {
		if want := float64(3 * 120); v != want {
			t.Fatalf("rank %d saw %v, want %v (stats %+v)", rk, v, want, st)
		}
	}
}

func TestRebindSurvivesGhostCrash(t *testing.T) {
	// Origins 2 and 3 hammer targets 0 and 2, both statically bound to
	// the first ghost; the rebalancer migrates one of them to the idle
	// second ghost, and then that ghost is killed mid-run. The moved
	// binding must be dropped, PR 1's failover must reroute, and no
	// update may be lost. The crash fires at 150us — after the window
	// creation collectives (~80us of virtual time here) have completed,
	// so the victim has exposed its regions and the run is mid-workload.
	mcfg := casperConfig(6, 6)
	ghosts, err := GhostRanks(mcfg.Machine, 6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Last ghost of node 0: an ordinary ghost, so this test isolates the
	// rebind/failover path (sequencer death and succession are covered by
	// recovery_test.go and the faultchaos sweep).
	victim := ghosts[0][len(ghosts[0])-1]
	mcfg.Fault = &fault.Plan{
		Seed:    9,
		Crashes: []fault.Crash{{Rank: victim, At: sim.Time(150 * sim.Microsecond)}},
	}
	var got [4]float64
	w := casperRun(t, mcfg, Config{
		NumGhosts: 2,
		Overload:  overloadCfg(2 * sim.Microsecond),
	}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 64, mpi.Info{InfoEpochsUsed: "lockall"})
		c.Barrier()
		win.LockAll(mpi.AssertNone)
		if p.Rank() >= 2 {
			for i := 0; i < 300; i++ {
				for _, tgt := range []int{0, 2} {
					win.Accumulate(mpi.PutFloat64s([]float64{1}), tgt, 0,
						mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				p.Compute(150 * sim.Nanosecond)
				if i%25 == 24 {
					win.FlushAll()
				}
			}
		}
		win.UnlockAll()
		c.Barrier()
		if p.Rank() == 0 || p.Rank() == 2 {
			got[p.Rank()] = mpi.GetFloat64s(buf)[0]
		}
		c.Barrier()
	})
	st := w.Summary()
	if n := st.Counters[mpi.RanksFailed]; n != 1 {
		t.Fatalf("ranks_failed = %d, want 1 (victim %d)", n, victim)
	}
	if st.Counters[mpi.Migrations] == 0 {
		t.Fatalf("skewed load never triggered a migration: %+v", st)
	}
	for _, rk := range []int{0, 2} {
		if want := float64(2 * 300); got[rk] != want {
			t.Fatalf("target %d saw %v, want %v (stats %+v)", rk, got[rk], want, st)
		}
	}
}

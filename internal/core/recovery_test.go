package core

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Total-ghost-fault-tolerance regressions: killing the sequencer ghost
// (the lowest ghost rank, which orders every deployment command) at the
// nastiest instants — mid lock epoch, mid window construction — must
// leave user-visible data bit-identical to the fault-free run, with the
// succession and mid-epoch lock-reclamation machinery visibly engaged.

// recoveryWorld is the smallest world where succession, same-node
// rebinding and cross-node degradation can all occur: 2 nodes x (2
// users + 2 ghosts). Users are world ranks 0,1,4,5; ghosts 2,3 (node 0)
// and 6,7 (node 1); the sequencer is ghost 2.
const (
	recUsers  = 4
	recGhosts = 2
	recPPN    = recUsers/2 + recGhosts
	recN      = 2 * recPPN
)

// recoveryLockloop cycles shared-lock epochs over rotating targets with
// commutative accumulates, holding the first epoch open far past the
// failure detector's grace period and issuing again after the dwell —
// so a ghost killed during the dwell is detected mid-epoch and the
// post-dwell accumulate must re-acquire locks on a surviving ghost.
// Returns this rank's settled table.
func recoveryLockloop(p *Process) []byte {
	c := p.CommWorld()
	n := c.Size()
	const words, iters = 4, 6
	win, local := p.WinAllocate(c, 8*words, mpi.Info{InfoEpochsUsed: EpochLock})
	c.Barrier()
	for it := 0; it < iters; it++ {
		// +1 keeps the long-dwell epoch (it==0) off the self target,
		// whose ops take the local fast path and hold no ghost locks.
		t := (c.Rank() + it + 1) % n
		win.Lock(t, mpi.LockShared, mpi.AssertNone)
		for wd := 0; wd < words; wd++ {
			v := int64(c.Rank()*1000 + it*10 + wd)
			win.Accumulate(mpi.PutInt64(v), t, wd*8, mpi.Scalar(mpi.Int64), mpi.OpSum)
		}
		win.Flush(t)
		if it == 0 {
			p.Compute(250 * sim.Microsecond) // detector confirms mid-epoch
			win.Accumulate(mpi.PutInt64(int64(c.Rank()+1)), t, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
			win.Flush(t)
		}
		win.Unlock(t)
	}
	c.Barrier()
	sig := append([]byte(nil), local...)
	win.Free()
	return sig
}

// recoveryRun executes the lockloop under an optional fault plan and
// returns the per-rank tables plus the world summary.
func recoveryRun(t *testing.T, plan *fault.Plan) ([][]byte, mpi.WorldSummary) {
	t.Helper()
	mcfg := casperConfig(recN, recPPN)
	mcfg.Fault = plan
	data := make([][]byte, recUsers)
	w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: recGhosts})
		if ghost {
			return
		}
		data[p.Rank()] = recoveryLockloop(p)
		p.Finalize()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := w.Validator(); v != nil && !v.Ok() {
		t.Fatalf("validator: %v", v.Violations())
	}
	return data, w.Summary()
}

func assertSameTables(t *testing.T, got, want [][]byte, what string) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: rank %d table %d bytes, want %d", what, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("%s: rank %d byte %d = %#x, want %#x (not bit-identical)",
					what, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestSequencerKillMidLockEpochBitIdentical kills the sequencer ghost
// while every origin holds an open lock epoch (the it==0 dwell). The
// next-lowest surviving ghost must take over command ordering, open
// epochs must re-acquire their locks mid-epoch on surviving ghosts, and
// the settled tables must be bit-identical to the fault-free run.
func TestSequencerKillMidLockEpochBitIdentical(t *testing.T) {
	base, _ := recoveryRun(t, nil)
	plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{
		{Rank: recUsers/2 + 0, At: sim.Time(60 * sim.Microsecond)}, // ghost 2: the sequencer
	}}
	got, sum := recoveryRun(t, plan)
	assertSameTables(t, got, base, "sequencer kill mid-epoch")
	if sum.RanksFailed != 1 {
		t.Fatalf("RanksFailed = %d, want 1", sum.RanksFailed)
	}
	if sum.Successions == 0 {
		t.Fatal("sequencer died but no ghost performed a succession")
	}
	// No EpochRelocks assertion here: epoch open locks every ghost of the
	// target's node, so with a same-node survivor the original lock set
	// already covers the rebound route — relocks only happen when the
	// progress set grows past it (see TestNodeGhostWipeoutMidLockEpoch).
	if sum.LocksReclaimed == 0 {
		t.Fatal("sequencer died holding epoch locks but none were reclaimed")
	}
	if sum.Rebinds == 0 {
		t.Fatal("no origin rebound its routing off the dead sequencer")
	}
}

// TestNodeGhostWipeoutMidLockEpoch kills BOTH ghosts of node 0 — the
// sequencer and its same-node successor — during the dwell. Node 0
// degrades to target-side self progress; epochs still relock and the
// data stays bit-identical.
func TestNodeGhostWipeoutMidLockEpoch(t *testing.T) {
	base, _ := recoveryRun(t, nil)
	plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{
		{Rank: recUsers/2 + 0, At: sim.Time(60 * sim.Microsecond)},
		{Rank: recUsers/2 + 1, At: sim.Time(90 * sim.Microsecond)},
	}}
	got, sum := recoveryRun(t, plan)
	assertSameTables(t, got, base, "node-0 ghost wipeout")
	if sum.RanksFailed != 2 {
		t.Fatalf("RanksFailed = %d, want 2", sum.RanksFailed)
	}
	if sum.Successions == 0 {
		t.Fatal("no succession after losing both node-0 ghosts")
	}
	if sum.EpochRelocks == 0 {
		t.Fatal("no mid-epoch relock after losing both node-0 ghosts")
	}
}

// TestSequencerKillMidWindowConstruction kills the sequencer so early
// that the deployment's window-creation commands are still in flight:
// the successor must replay the command log so every surviving ghost
// sees the same window order, and the run must still come out
// bit-identical.
func TestSequencerKillMidWindowConstruction(t *testing.T) {
	base, _ := recoveryRun(t, nil)
	plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{
		{Rank: recUsers/2 + 0, At: sim.Time(2 * sim.Microsecond)},
	}}
	got, sum := recoveryRun(t, plan)
	assertSameTables(t, got, base, "sequencer kill mid-construction")
	if sum.Successions == 0 {
		t.Fatal("sequencer died during construction but no succession happened")
	}
}

// TestCrashedRanksReleasedAfterRun: a ghost killed mid-run stays parked
// mid-call and a crashed-and-recovered app rank spends the outage
// frozen; once World.Run returns cleanly neither may pin a goroutine
// (and through it the world).
func TestCrashedRanksReleasedAfterRun(t *testing.T) {
	before := runtime.NumGoroutine()
	_, sum := recoveryRun(t, &fault.Plan{
		Seed:       9,
		Crashes:    []fault.Crash{{Rank: recUsers/2 + 1, At: sim.Time(60 * sim.Microsecond)}}, // ghost 3
		AppCrashes: []fault.AppCrash{{Rank: 1, At: sim.Time(90 * sim.Microsecond)}},
	})
	if sum.RanksFailed != 1 || sum.AppRecoveries != 1 {
		t.Fatalf("RanksFailed = %d, AppRecoveries = %d, want 1 and 1: the plan did not bite",
			sum.RanksFailed, sum.AppRecoveries)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after World.Run, %d before: crashed ranks still parked", after, before)
	}
}

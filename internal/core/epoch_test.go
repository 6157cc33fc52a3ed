package core

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// lockAllEpochObjects runs the Fig. 6(a) pattern — under lockall, one
// accumulate from every user to every other — on 2 nodes of 8 users and
// the given ghosts each, and returns the objects the host allocated
// between the barriers around the epoch. Default hints declare lock
// epochs too, so the lockall becomes per-target locks on every ghost of
// the target's node (III-C-3): T x G lock calls per origin, of which only
// the bound ghost's ever carries a request or an operation.
func lockAllEpochObjects(t *testing.T, ghosts int) (objects, channels uint64) {
	t.Helper()
	const nodes, usersPerNode = 2, 8
	ppn := usersPerNode + ghosts
	mcfg := casperConfig(nodes*ppn, ppn)
	mcfg.Validate = false
	var before, after runtime.MemStats
	one := mpi.PutFloat64s([]float64{1})
	sums := make([]float64, nodes*usersPerNode)
	casperRun(t, mcfg, Config{NumGhosts: ghosts}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		epoch := func() {
			win.LockAll(mpi.AssertNone)
			for tg := 0; tg < c.Size(); tg++ {
				if tg != c.Rank() {
					win.Accumulate(one, tg, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
			}
			win.UnlockAll()
		}
		epoch() // warm-up: flag arrays, op freelists, pool buffers, lock managers
		c.Barrier()
		if c.Rank() == 0 {
			// One process at a time runs: nobody is inside the epoch yet.
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		epoch()
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		sums[c.Rank()] = mpi.GetFloat64s(buf)[0]
		win.Free()
	})
	users := uint64(nodes * usersPerNode)
	for r, s := range sums {
		if s != float64(2*(users-1)) {
			t.Fatalf("ghosts=%d: user %d holds %v after two epochs, want %d", ghosts, r, s, 2*(users-1))
		}
	}
	return after.Mallocs - before.Mallocs, users * (users - 1)
}

// TestLockAllEpochAllocatesPerChannelNotPerGhost: the host cost of a
// Casper lockall epoch follows the channels it uses (one per origin and
// target), not the T x G ghost locks it opens and closes.
func TestLockAllEpochAllocatesPerChannelNotPerGhost(t *testing.T) {
	few, channels := lockAllEpochObjects(t, 2)
	many, _ := lockAllEpochObjects(t, 8)
	t.Logf("objects per epoch over %d channels: %d with 2 ghosts/node (%.2f per channel), %d with 8 (%.2f)",
		channels, few, float64(few)/float64(channels), many, float64(many)/float64(channels))
	if float64(many) > 1.15*float64(few) {
		t.Errorf("objects grew %.2fx from 2 to 8 ghosts per node (%d -> %d); want at most 1.15x",
			float64(many)/float64(few), few, many)
	}
	// The channel state, plus the scheduler buckets the clock newly reaches
	// and slack for the barriers; an object per ghost lock would be 8 and
	// more.
	if per := float64(many) / float64(channels); per > 3 {
		t.Errorf("%.2f objects per channel with 8 ghosts per node, want at most 3", per)
	}
}

// recoveryDwell is recoveryLockloop's first epoch alone, with the choice
// of when the epoch's lock requests first leave the origin: before the
// dwell in which the ghosts die (accumulate + flush right after Lock, so
// every ghost's lock manager exists and holds this origin's lock when
// its ghost dies) or only after it (Lock is lazy: nothing but flags until
// the post-dwell accumulate, so the dead ghosts' managers are created
// after the detector confirmed the death).
func recoveryDwell(requestBeforeDwell bool) func(p *Process) []byte {
	return func(p *Process) []byte {
		c := p.CommWorld()
		win, local := p.WinAllocate(c, 8, mpi.Info{InfoEpochsUsed: EpochLock})
		c.Barrier()
		tg := (c.Rank() + 1) % c.Size()
		acc := func(v int64) {
			win.Accumulate(mpi.PutInt64(v), tg, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
		}
		win.Lock(tg, mpi.LockShared, mpi.AssertNone)
		if requestBeforeDwell {
			acc(int64(1000 * (c.Rank() + 1)))
			win.Flush(tg)
		}
		p.Compute(250 * sim.Microsecond) // detector confirms mid-epoch
		acc(int64(c.Rank() + 1))
		win.Flush(tg)
		win.Unlock(tg)
		c.Barrier()
		sig := append([]byte(nil), local...)
		win.Free()
		return sig
	}
}

// TestGhostWipeoutMidEpochManagerBeforeAndAfterDeath loses both ghosts of
// node 0 inside an open lock epoch. Either way the epoch must relock on
// the degraded target and settle bit-identically; what differs is how
// the origin's locks on the dead ghosts resolve — reclaimed from a
// manager that was arbitrating when its ghost died, or granted at once by
// a manager born in dead mode.
func TestGhostWipeoutMidEpochManagerBeforeAndAfterDeath(t *testing.T) {
	plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{
		{Rank: recUsers/2 + 0, At: sim.Time(60 * sim.Microsecond)},
		{Rank: recUsers/2 + 1, At: sim.Time(90 * sim.Microsecond)},
	}}
	run := func(body func(p *Process) []byte, plan *fault.Plan) ([][]byte, mpi.WorldSummary) {
		mcfg := casperConfig(recN, recPPN)
		mcfg.Fault = plan
		data := make([][]byte, recUsers)
		w := casperRun(t, mcfg, Config{NumGhosts: recGhosts}, func(p *Process) {
			data[p.Rank()] = body(p)
		})
		return data, w.Summary()
	}
	for _, before := range []bool{true, false} {
		body := recoveryDwell(before)
		base, _ := run(body, nil)
		got, sum := run(body, plan)
		what := "locks requested after the death"
		if before {
			what = "locks requested before the death"
		}
		assertSameTables(t, got, base, what)
		if sum.RanksFailed != 2 {
			t.Fatalf("%s: RanksFailed = %d, want 2", what, sum.RanksFailed)
		}
		if sum.EpochRelocks == 0 {
			t.Errorf("%s: no mid-epoch relock after losing both node-0 ghosts", what)
		}
		if before && sum.LocksReclaimed == 0 {
			t.Errorf("%s: ghosts died holding epoch locks but none were reclaimed", what)
		}
		if !before && sum.LocksReclaimed != 0 {
			t.Errorf("%s: %d locks reclaimed, but no manager existed when the ghosts died",
				what, sum.LocksReclaimed)
		}
	}
}

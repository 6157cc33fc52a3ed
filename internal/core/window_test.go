package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestCasperPutGetRoundTrip(t *testing.T) {
	// 2 nodes x 4 ranks, 1 ghost each -> 6 users. Cross-node put/get.
	var got []float64
	casperRun(t, casperConfig(8, 4), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 64, nil)
		c.Barrier()
		if p.Rank() == 0 {
			last := p.Size() - 1 // on the other node
			win.Lock(last, mpi.LockExclusive, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{2.5, -7}), last, 16, mpi.TypeOf(mpi.Float64, 2))
			win.Unlock(last)
			win.Lock(last, mpi.LockShared, mpi.AssertNone)
			dst := make([]byte, 16)
			win.Get(dst, last, 16, mpi.TypeOf(mpi.Float64, 2))
			win.Unlock(last)
			got = mpi.GetFloat64s(dst)
		}
		c.Barrier()
	})
	if got[0] != 2.5 || got[1] != -7 {
		t.Fatalf("got %v", got)
	}
}

func TestCasperPutLandsInUserMemory(t *testing.T) {
	// The redirected put must be visible in the target's own buffer
	// (offset translation into the shared segment, Section II-C).
	results := map[int]float64{}
	casperRun(t, casperConfig(8, 4), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			for tgt := 1; tgt < p.Size(); tgt++ {
				win.Put(mpi.PutFloat64s([]float64{float64(100 + tgt)}), tgt, 0,
					mpi.Scalar(mpi.Float64))
			}
			win.UnlockAll()
		}
		c.Barrier()
		results[p.Rank()] = mpi.GetFloat64s(buf)[0]
	})
	for tgt := 1; tgt < 6; tgt++ {
		if results[tgt] != float64(100+tgt) {
			t.Fatalf("target %d saw %v", tgt, results[tgt])
		}
	}
}

func TestCasperOffsetTranslationWithUnevenSizes(t *testing.T) {
	// Ranks allocate different sizes; displacements must still land at
	// the right user bytes (prefix-sum offsets in the node segment).
	var got float64
	casperRun(t, casperConfig(6, 6), Config{NumGhosts: 2}, func(p *Process) {
		c := p.CommWorld()
		size := 8 * (p.Rank() + 1) // 8, 16, 24, 32
		win, buf := p.WinAllocate(c, size, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			// Write the LAST double of target 3's 32-byte window.
			win.Put(mpi.PutFloat64s([]float64{55}), 3, 24, mpi.Scalar(mpi.Float64))
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 3 {
			got = mpi.GetFloat64s(buf)[3]
		}
	})
	if got != 55 {
		t.Fatalf("got %v", got)
	}
}

func TestCasperAccumulateFromManyOrigins(t *testing.T) {
	var sum float64
	casperRun(t, casperConfig(16, 8), Config{NumGhosts: 2}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() != 0 {
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
				mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 0 {
			sum = mpi.GetFloat64s(buf)[0]
		}
	})
	if sum != 11 { // 12 users - 1
		t.Fatalf("sum = %v, want 11", sum)
	}
}

func TestCasperHeadlineAsyncProgress(t *testing.T) {
	// THE paper result: an accumulate to a computing target does not
	// stall the origin, because the ghost services it. Compare with the
	// identical workload over plain MPI.
	wait := 400 * sim.Microsecond
	workload := func(env mpi.Env) sim.Duration {
		c := env.CommWorld()
		win, _ := env.WinAllocate(c, 64, nil)
		c.Barrier()
		var el sim.Duration
		if env.Rank() == 0 {
			start := env.Now()
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s([]float64{1}), 1, 0,
				mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.UnlockAll()
			el = env.Now().Sub(start)
		} else if env.Rank() == 1 {
			env.Compute(wait)
		}
		c.Barrier()
		return el
	}

	var casperTime sim.Duration
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		if d := workload(p); d > 0 {
			casperTime = d
		}
	})

	var plainTime sim.Duration
	w, err := mpi.Run(casperConfig(2, 1), func(r *mpi.Rank) {
		if d := workload(r); d > 0 {
			plainTime = d
		}
	})
	if err != nil || w == nil {
		t.Fatal(err)
	}

	if plainTime < wait {
		t.Fatalf("plain MPI should stall ~%v, got %v", wait, plainTime)
	}
	if casperTime > wait/4 {
		t.Fatalf("casper origin stalled %v", casperTime)
	}
}

func TestCasperFenceTranslation(t *testing.T) {
	var seen float64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		win.Fence(mpi.ModeNoPrecede)
		if p.Rank() == 0 {
			win.Put(mpi.PutFloat64s([]float64{3.25}), 1, 0, mpi.Scalar(mpi.Float64))
		}
		win.Fence(mpi.ModeNoSucceed)
		if p.Rank() == 1 {
			seen = mpi.GetFloat64s(buf)[0]
		}
	})
	if seen != 3.25 {
		t.Fatalf("after casper fence target saw %v", seen)
	}
}

func TestCasperFenceAssertsReduceCost(t *testing.T) {
	fenceCost := func(assert mpi.Assert) sim.Duration {
		var d sim.Duration
		casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
			c := p.CommWorld()
			win, _ := p.WinAllocate(c, 8, nil)
			win.Fence(mpi.ModeNoPrecede) // open
			c.Barrier()
			start := p.Now()
			win.Fence(assert)
			if p.Rank() == 0 {
				d = p.Now().Sub(start)
			}
			c.Barrier()
		})
		return d
	}
	full := fenceCost(mpi.AssertNone)
	skipped := fenceCost(mpi.ModeNoPrecede | mpi.ModeNoStore | mpi.ModeNoPut)
	if skipped >= full {
		t.Fatalf("asserts did not reduce fence cost: %v vs %v", skipped, full)
	}
}

func TestCasperPSCWTranslation(t *testing.T) {
	var got float64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.Start([]int{1}, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{9.5}), 1, 0, mpi.Scalar(mpi.Float64))
			win.Complete()
		} else if p.Rank() == 1 {
			win.Post([]int{0}, mpi.AssertNone)
			win.Wait()
			got = mpi.GetFloat64s(buf)[0]
		}
		c.Barrier()
	})
	if got != 9.5 {
		t.Fatalf("got %v", got)
	}
}

func TestCasperPSCWDataCompleteAtWait(t *testing.T) {
	// Unlike plain MPI complete, Casper flushes before notifying, so at
	// Wait the data is remotely complete even with a busy target.
	var got float64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.Start([]int{1}, mpi.AssertNone)
			for i := 0; i < 8; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 1, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			win.Complete()
		} else if p.Rank() == 1 {
			win.Post([]int{0}, mpi.AssertNone)
			p.Compute(100 * sim.Microsecond)
			win.Wait()
			got = mpi.GetFloat64s(buf)[0]
		}
		c.Barrier()
	})
	if got != 8 {
		t.Fatalf("at Wait target saw %v, want 8", got)
	}
}

func TestCasperGetAccumulateAndAtomics(t *testing.T) {
	var old, fetched, casOld int64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 16, nil)
		if p.Rank() == 1 {
			copy(buf, mpi.PutInt64(40))
		}
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			res := make([]byte, 8)
			win.FetchAndOp(mpi.PutInt64(2), res, 1, 0, mpi.Int64, mpi.OpSum)
			win.Flush(1)
			old = mpi.GetInt64(res)
			win.GetAccumulate(mpi.PutInt64(3), res, 1, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
			win.Flush(1)
			fetched = mpi.GetInt64(res)
			win.CompareAndSwap(mpi.PutInt64(45), mpi.PutInt64(99), res, 1, 0, mpi.Int64)
			win.Flush(1)
			casOld = mpi.GetInt64(res)
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 1 && mpi.GetInt64(buf) != 99 {
			t.Errorf("final value %d, want 99", mpi.GetInt64(buf))
		}
	})
	if old != 40 || fetched != 42 || casOld != 45 {
		t.Fatalf("old=%d fetched=%d casOld=%d", old, fetched, casOld)
	}
}

func TestCasperLockEpochsToDistinctLocalTargetsAllowed(t *testing.T) {
	// An origin holding exclusive locks on two user processes of the
	// same node is legal; Casper's per-user overlapping windows avoid
	// funneling both into one ghost lock (Section III-A).
	casperRun(t, casperConfig(8, 8), Config{NumGhosts: 2}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.Lock(1, mpi.LockExclusive, mpi.AssertNone)
			win.Lock(2, mpi.LockExclusive, mpi.AssertNone) // same node!
			win.Put(mpi.PutFloat64s([]float64{1}), 1, 0, mpi.Scalar(mpi.Float64))
			win.Put(mpi.PutFloat64s([]float64{2}), 2, 0, mpi.Scalar(mpi.Float64))
			win.Unlock(1)
			win.Unlock(2)
		}
		c.Barrier()
	})
}

func TestCasperUnsafeSharedLockWindowBreaksNestedLocks(t *testing.T) {
	// Ablation: without the per-user-process overlapping windows, two
	// exclusive locks to co-located users become nested locks to the
	// same ghost — which MPI forbids.
	defer func() {
		if recover() == nil {
			t.Error("no panic in unsafe shared-lock-window mode")
		}
	}()
	mcfg := casperConfig(8, 8)
	w, _ := mpi.NewWorld(mcfg)
	w.Launch(func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: 1, UnsafeSharedLockWindow: true})
		if ghost {
			return
		}
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.Lock(1, mpi.LockExclusive, mpi.AssertNone)
			win.Lock(2, mpi.LockExclusive, mpi.AssertNone)
		}
		c.Barrier()
	})
	w.Run()
}

func TestCasperExclusiveLockSerializesAcrossOrigins(t *testing.T) {
	type span struct{ start, end sim.Time }
	spans := map[int]span{}
	casperRun(t, casperConfig(8, 4), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 1 || p.Rank() == 2 {
			win.Lock(0, mpi.LockExclusive, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
			win.Flush(0)
			start := p.Now()
			win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
				mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.Flush(0)
			spans[p.Rank()] = span{start, p.Now()}
			win.Unlock(0)
		}
		c.Barrier()
	})
	a, b := spans[1], spans[2]
	if a.start < b.end && b.start < a.end {
		t.Fatalf("exclusive casper epochs overlap: %+v %+v", a, b)
	}
}

func TestCasperEpochHintViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic using undeclared epoch type")
		}
	}()
	mcfg := casperConfig(4, 4)
	w, _ := mpi.NewWorld(mcfg)
	w.Launch(func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: 1})
		if ghost {
			return
		}
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, mpi.Info{InfoEpochsUsed: "lockall"})
		win.Fence(mpi.AssertNone) // fence not declared
		c.Barrier()
	})
	w.Run()
}

func TestCasperWindowCountsFollowEpochHints(t *testing.T) {
	// Fig. 3(a)'s mechanism: fewer declared epoch types -> fewer
	// internal windows -> cheaper allocation.
	allocTime := func(info mpi.Info) sim.Duration {
		var d sim.Duration
		casperRun(t, casperConfig(12, 12), Config{NumGhosts: 2}, func(p *Process) {
			c := p.CommWorld()
			start := p.Now()
			p.WinAllocate(c, 256, info)
			if p.Rank() == 0 {
				d = p.Now().Sub(start)
			}
			c.Barrier()
		})
		return d
	}
	def := allocTime(nil)
	lockOnly := allocTime(mpi.Info{InfoEpochsUsed: "lock"})
	lockallOnly := allocTime(mpi.Info{InfoEpochsUsed: "lockall"})
	if !(lockallOnly < lockOnly && lockOnly < def) {
		t.Fatalf("window allocation costs out of order: default=%v lock=%v lockall=%v",
			def, lockOnly, lockallOnly)
	}
}

func TestCasperMultipleSimultaneousEpochs(t *testing.T) {
	// The Section III-C scenario: one disjoint set of processes runs a
	// lock-unlock epoch on window A while another runs a fence epoch on
	// window B — the same ghosts must serve both without ever blocking
	// in a collective. Because Casper translates active-target epochs
	// to passive-target ones, the ghosts stay in their receive loops
	// and both groups make progress.
	var lockVal, fenceVal float64
	casperRun(t, casperConfig(12, 6), Config{NumGhosts: 2}, func(p *Process) {
		c := p.CommWorld() // 8 users
		// Disjoint groups with their own windows: ranks 0-1 run a
		// lock-unlock epoch on window A, ranks 2-7 run fence epochs on
		// window B.
		group := 0
		if p.Rank() >= 2 {
			group = 1
		}
		sub := c.Split(group, p.Rank())
		if group == 0 {
			winA, bufA := p.WinAllocate(sub, 8, mpi.Info{InfoEpochsUsed: "lock"})
			sub.Barrier()
			if sub.Rank() == 0 {
				winA.Lock(1, mpi.LockExclusive, mpi.AssertNone)
				winA.Accumulate(mpi.PutFloat64s([]float64{2}), 1, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
				winA.Unlock(1)
			}
			sub.Barrier()
			if sub.Rank() == 1 {
				lockVal = mpi.GetFloat64s(bufA)[0]
			}
		} else {
			winB, bufB := p.WinAllocate(sub, 8, mpi.Info{InfoEpochsUsed: "fence"})
			winB.Fence(mpi.ModeNoPrecede)
			if sub.Rank() == 0 {
				winB.Put(mpi.PutFloat64s([]float64{7}), 1, 0, mpi.Scalar(mpi.Float64))
			}
			winB.Fence(mpi.ModeNoSucceed)
			if sub.Rank() == 1 {
				fenceVal = mpi.GetFloat64s(bufB)[0]
			}
		}
		c.Barrier()
	})
	if lockVal != 2 || fenceVal != 7 {
		t.Fatalf("lockVal=%v fenceVal=%v", lockVal, fenceVal)
	}
}

func TestConcurrentWindowCreationByDisjointGroups(t *testing.T) {
	// Stress the sequencer protocol: disjoint groups on different
	// nodes create windows concurrently, staggered so their commands
	// race toward the ghosts; every ghost must observe one global
	// order and both creations must complete and work.
	for trial := 0; trial < 4; trial++ {
		trial := trial
		results := map[int]float64{}
		mcfg := casperConfig(12, 6) // 2 nodes x (4 users + 2 ghosts)
		mcfg.Seed = int64(100 + trial)
		casperRun(t, mcfg, Config{NumGhosts: 2}, func(p *Process) {
			c := p.CommWorld() // 8 users: 0-3 node 0, 4-7 node 1
			group := p.Rank() / 4
			sub := c.Split(group, p.Rank())
			// Stagger the groups differently each trial.
			p.Compute(sim.Duration((trial*37+group*13)%50) * sim.Microsecond)
			win, buf := p.WinAllocate(sub, 8, nil)
			sub.Barrier()
			if sub.Rank() == 0 {
				win.LockAll(mpi.AssertNone)
				win.Accumulate(mpi.PutFloat64s([]float64{float64(group + 1)}), 1, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
				win.UnlockAll()
			}
			sub.Barrier()
			if sub.Rank() == 1 {
				results[group] = mpi.GetFloat64s(buf)[0]
			}
			c.Barrier()
		})
		if results[0] != 1 || results[1] != 2 {
			t.Fatalf("trial %d: results = %v", trial, results)
		}
	}
}

func TestCasperManyWindowsSameGhosts(t *testing.T) {
	// Several windows share the same ghost processes; operations on all
	// of them progress concurrently.
	const nWins = 4
	sums := make([]float64, nWins)
	casperRun(t, casperConfig(6, 3), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		wins := make([]mpi.Window, nWins)
		bufs := make([][]byte, nWins)
		for i := range wins {
			wins[i], bufs[i] = p.WinAllocate(c, 8, nil)
		}
		c.Barrier()
		if p.Rank() != 0 {
			for i, w := range wins {
				w.LockAll(mpi.AssertNone)
				w.Accumulate(mpi.PutFloat64s([]float64{float64(i + 1)}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
				w.UnlockAll()
			}
		}
		c.Barrier()
		if p.Rank() == 0 {
			for i := range bufs {
				sums[i] = mpi.GetFloat64s(bufs[i])[0]
			}
		}
	})
	for i, s := range sums {
		if s != float64(3*(i+1)) { // 3 origins
			t.Fatalf("window %d sum = %v, want %v", i, s, 3*(i+1))
		}
	}
}

func TestCasperWindowFreeAndRecreate(t *testing.T) {
	// Windows freed out of creation order (the GA destroy pattern),
	// then recreated — ghosts must track instances correctly and the
	// run must terminate cleanly.
	casperRun(t, casperConfig(6, 3), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		w1, _ := p.WinAllocate(c, 8, nil)
		w2, _ := p.WinAllocate(c, 8, nil)
		w3, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		// Free out of order: 2, 1, 3.
		w2.Free()
		w1.Free()
		w3.Free()
		// Recreate and use.
		w4, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			w4.LockAll(mpi.AssertNone)
			w4.Accumulate(mpi.PutFloat64s([]float64{1}), 1, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			w4.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 1 && mpi.GetFloat64s(buf)[0] != 1 {
			t.Error("recreated window does not work")
		}
		w4.Free()
		c.Barrier()
	})
}

func TestCasperDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mcfg := casperConfig(4, 4)
	w, _ := mpi.NewWorld(mcfg)
	w.Launch(func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: 1})
		if ghost {
			return
		}
		win, _ := p.WinAllocate(p.CommWorld(), 8, nil)
		win.Free()
		win.Free()
	})
	w.Run()
}

func TestCasperStatsCountRedirections(t *testing.T) {
	var st mpi.Counters
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			for i := 0; i < 5; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 1, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			win.UnlockAll()
			st = p.r.Stats()
		}
		c.Barrier()
	})
	if st[mpi.Redirected] != 5 {
		t.Fatalf("Redirected = %d", st[mpi.Redirected])
	}
}

func TestCasperOpsGoToGhostsNotUsers(t *testing.T) {
	w := casperRun(t, casperConfig(8, 4), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			for tgt := 1; tgt < p.Size(); tgt++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), tgt, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			win.UnlockAll()
		}
		c.Barrier()
	})
	// Ghosts are world ranks 3 and 7 (last occupied core of each
	// 4-rank node). Six users -> five accumulate targets.
	totalGhostAMs := w.RankByID(3).Stats()[mpi.SoftwareAMs] + w.RankByID(7).Stats()[mpi.SoftwareAMs]
	if totalGhostAMs != 5 {
		t.Fatalf("ghost AMs = %d, want 5", totalGhostAMs)
	}
	for _, user := range []int{0, 1, 2, 4, 5, 6} {
		if n := w.RankByID(user).Stats()[mpi.SoftwareAMs]; n != 0 {
			t.Fatalf("user rank %d processed %d AMs; all should go to ghosts", user, n)
		}
	}
}

// TestCtargetSize: an origin keeps one ctarget per user target of every
// window handle, so a 384-rank world holds 384 per handle per rank. The
// state stays within a word and holds no pointer for the collector to
// scan; the ghosts a failure-hit epoch locked live beside it.
func TestCtargetSize(t *testing.T) {
	if n := unsafe.Sizeof(ctarget(0)); n > 8 {
		t.Fatalf("ctarget is %d bytes, want at most 8", n)
	}
	if k := reflect.TypeFor[ctarget]().Kind(); k < reflect.Bool || k > reflect.Complex128 {
		t.Fatalf("ctarget is a %v, want a scalar without pointers", k)
	}
}

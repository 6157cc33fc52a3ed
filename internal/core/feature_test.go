package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestAsyncConfigOffBypassesGhosts(t *testing.T) {
	// With async_config=off the window is plain MPI: ops hit the user
	// target directly and stall behind its compute.
	var originTime sim.Duration
	w := casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 64, mpi.Info{InfoAsyncConfig: "off"})
		c.Barrier()
		if p.Rank() == 0 {
			start := p.Now()
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s([]float64{1}), 1, 0,
				mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.UnlockAll()
			originTime = p.Now().Sub(start)
		} else if p.Rank() == 1 {
			p.Compute(150 * sim.Microsecond)
		}
		c.Barrier()
	})
	if originTime < 100*sim.Microsecond {
		t.Fatalf("async_config=off should stall like plain MPI, got %v", originTime)
	}
	// No ghost should have serviced anything: world ranks 1 and 3 are
	// the ghosts (ppn=2, 1 ghost -> local index 1).
	for _, g := range []int{1, 3} {
		if n := w.RankByID(g).Stats()[mpi.SoftwareAMs]; n != 0 {
			t.Fatalf("ghost %d serviced %d AMs despite async_config=off", g, n)
		}
	}
}

func TestAsyncConfigOnAndOffWindowsCoexist(t *testing.T) {
	var offSum, onSum float64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		wOff, bufOff := p.WinAllocate(c, 8, mpi.Info{InfoAsyncConfig: "off"})
		wOn, bufOn := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			wOff.LockAll(mpi.AssertNone)
			wOff.Accumulate(mpi.PutFloat64s([]float64{3}), 1, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			wOff.UnlockAll()
			wOn.LockAll(mpi.AssertNone)
			wOn.Accumulate(mpi.PutFloat64s([]float64{4}), 1, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			wOn.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 1 {
			offSum = mpi.GetFloat64s(bufOff)[0]
			onSum = mpi.GetFloat64s(bufOn)[0]
		}
	})
	if offSum != 3 || onSum != 4 {
		t.Fatalf("off=%v on=%v", offSum, onSum)
	}
}

func TestAsyncConfigBadValuePanics(t *testing.T) {
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
		p.WinAllocate(p.CommWorld(), 8, mpi.Info{InfoAsyncConfig: "maybe"})
	})
	w.Run()
}

func TestInfoBindingOverride(t *testing.T) {
	// Deployment default is rank binding; the window overrides to
	// segment binding, so a wide accumulate splits across ghosts.
	cfg := Config{NumGhosts: 4, Binding: BindRank}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		size := 0
		if p.Rank() == 0 {
			size = 8 * 256
		}
		win, _ := p.WinAllocate(c, size, mpi.Info{InfoBinding: "segment"})
		c.Barrier()
		if p.Rank() == 1 {
			src := make([]float64, 256)
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s(src), 0, 0, mpi.TypeOf(mpi.Float64, 256), mpi.OpSum)
			win.UnlockAll()
		}
		c.Barrier()
	})
	busy := 0
	for _, g := range []int{4, 5, 6, 7} {
		if w.RankByID(g).Stats()[mpi.SoftwareAMs] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("segment-binding override ignored: %d ghosts busy", busy)
	}
}

func TestInfoLoadBalanceOverride(t *testing.T) {
	cfg := Config{NumGhosts: 4, LoadBalance: LBStatic}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 1024, mpi.Info{InfoLoadBalance: "random"})
		c.Barrier()
		if p.Rank() == 1 {
			win.Lock(0, mpi.LockShared, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
			win.Flush(0)
			for i := 0; i < 64; i++ {
				win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
			}
			win.Unlock(0)
		}
		c.Barrier()
	})
	busy := 0
	for _, g := range []int{4, 5, 6, 7} {
		if w.RankByID(g).Stats()[mpi.SoftwareAMs] > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("random load-balance override ignored: %d ghosts busy", busy)
	}
}

func TestInfoBadOverridesPanic(t *testing.T) {
	for _, info := range []mpi.Info{
		{InfoBinding: "diagonal"},
		{InfoLoadBalance: "vibes"},
	} {
		info := info
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", info)
				}
			}()
			mcfg := casperConfig(4, 4)
			w, _ := mpi.NewWorld(mcfg)
			w.Launch(func(r *mpi.Rank) {
				p, ghost := Init(r, Config{NumGhosts: 1})
				if ghost {
					return
				}
				p.WinAllocate(p.CommWorld(), 8, info)
			})
			w.Run()
		}()
	}
}

func TestSelfOpLocalCorrectAndFast(t *testing.T) {
	measure := func(local bool) (sim.Duration, float64, int64) {
		var el sim.Duration
		var got float64
		var count int64
		cfg := Config{NumGhosts: 1, SelfOpLocal: local}
		casperRun(t, casperConfig(4, 2), cfg, func(p *Process) {
			c := p.CommWorld()
			win, buf := p.WinAllocate(c, 64, nil)
			c.Barrier()
			if p.Rank() == 0 {
				win.LockAll(mpi.AssertNone)
				start := p.Now()
				win.Put(mpi.PutFloat64s([]float64{8.5}), 0, 8, mpi.Scalar(mpi.Float64))
				dst := make([]byte, 8)
				win.Get(dst, 0, 8, mpi.Scalar(mpi.Float64))
				win.FlushAll()
				el = p.Now().Sub(start)
				win.UnlockAll()
				got = mpi.GetFloat64s(dst)[0]
				if mpi.GetFloat64s(buf)[1] != 8.5 {
					t.Error("self put not visible in own buffer")
				}
				count = p.r.Stats()[mpi.SelfLocal]
			}
			c.Barrier()
		})
		return el, got, count
	}
	slowT, slowV, slowN := measure(false)
	fastT, fastV, fastN := measure(true)
	if slowV != 8.5 || fastV != 8.5 {
		t.Fatalf("values: redirected=%v local=%v", slowV, fastV)
	}
	if slowN != 0 || fastN != 2 {
		t.Fatalf("SelfLocal counters: %d, %d", slowN, fastN)
	}
	if fastT >= slowT {
		t.Fatalf("local self ops (%v) not faster than redirected (%v)", fastT, slowT)
	}
}

func TestSelfAccumulateStillRedirected(t *testing.T) {
	// Accumulates must keep going through the bound ghost even with
	// SelfOpLocal, to preserve ordering with remote accumulates.
	cfg := Config{NumGhosts: 1, SelfOpLocal: true}
	w := casperRun(t, casperConfig(4, 2), cfg, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s([]float64{5}), 0, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.UnlockAll()
			if mpi.GetFloat64s(buf)[0] != 5 {
				t.Error("self accumulate lost")
			}
			if p.r.Stats()[mpi.SelfLocal] != 0 {
				t.Error("accumulate taken local")
			}
		}
		c.Barrier()
	})
	if w.RankByID(1).Stats()[mpi.SoftwareAMs] != 1 {
		t.Fatal("self accumulate did not go through the ghost")
	}
}

// TestCasperSegmentSplitPutGetRoundTrip: a put and a get of 128 doubles,
// split over two ghosts by segment binding, round-trip the data.
func TestCasperSegmentSplitPutGetRoundTrip(t *testing.T) {
	cfg := Config{NumGhosts: 2, Binding: BindSegment}
	casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		size := 0
		if p.Rank() == 0 {
			size = 8 * 128
		}
		win, _ := p.WinAllocate(c, size, nil)
		c.Barrier()
		if p.Rank() == 1 {
			src := make([]float64, 128)
			for i := range src {
				src[i] = float64(i)
			}
			win.LockAll(mpi.AssertNone)
			win.Put(mpi.PutFloat64s(src), 0, 0, mpi.TypeOf(mpi.Float64, 128))
			win.Flush(0)
			dst := make([]byte, 8*128)
			win.Get(dst, 0, 0, mpi.TypeOf(mpi.Float64, 128))
			win.Flush(0)
			if p.r.Stats()[mpi.Split] != 2 {
				t.Errorf("split pieces = %d, want one extra piece per op", p.r.Stats()[mpi.Split])
			}
			got := mpi.GetFloat64s(dst)
			for i := range got {
				if got[i] != float64(i) {
					t.Errorf("elem %d = %v", i, got[i])
					break
				}
			}
			win.UnlockAll()
		}
		c.Barrier()
	})
}

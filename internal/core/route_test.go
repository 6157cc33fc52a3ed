package core

import (
	"testing"

	"repro/internal/mpi"
)

func TestSegmentBindingSplitCorrectness(t *testing.T) {
	// One node, 8 ranks, 4 ghosts -> 4 users. Rank 0 allocates a large
	// window; a single big accumulate must be split across ghosts and
	// still produce the exact arithmetic result.
	const n = 256 // doubles
	var got []float64
	cfg := Config{NumGhosts: 4, Binding: BindSegment}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		size := 0
		if p.Rank() == 0 {
			size = 8 * n
		}
		win, buf := p.WinAllocate(c, size, nil)
		c.Barrier()
		if p.Rank() == 1 {
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i)
			}
			win.LockAll(mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s(src), 0, 0, mpi.TypeOf(mpi.Float64, n), mpi.OpSum)
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 0 {
			got = mpi.GetFloat64s(buf)
		}
	})
	for i := 0; i < n; i++ {
		if got[i] != float64(i) {
			t.Fatalf("element %d = %v", i, got[i])
		}
	}
	// The 2048-byte extent spans all 4 ghost chunks; every ghost must
	// have processed pieces.
	ghostRanks := []int{4, 5, 6, 7}
	busy := 0
	for _, g := range ghostRanks {
		if w.RankByID(g).Stats()[mpi.SoftwareAMs] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d ghosts serviced the split accumulate", busy)
	}
}

func TestSegmentBindingVectorSplit(t *testing.T) {
	// A strided vector whose blocks straddle chunk boundaries.
	const n = 64
	var got []float64
	cfg := Config{NumGhosts: 2, Binding: BindSegment}
	casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		size := 0
		if p.Rank() == 0 {
			size = 8 * n
		}
		win, buf := p.WinAllocate(c, size, nil)
		c.Barrier()
		if p.Rank() == 1 {
			// 8 blocks of 4 doubles, stride 8: elements 0-3, 8-11, ...
			src := make([]float64, 32)
			for i := range src {
				src[i] = float64(i + 1)
			}
			win.LockAll(mpi.AssertNone)
			win.Put(mpi.PutFloat64s(src), 0, 0, mpi.Vector(mpi.Float64, 8, 4, 8))
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 0 {
			got = mpi.GetFloat64s(buf)
		}
	})
	si := 0
	for b := 0; b < 8; b++ {
		for e := 0; e < 4; e++ {
			si++
			if got[b*8+e] != float64(si) {
				t.Fatalf("block %d elem %d = %v, want %d", b, e, got[b*8+e], si)
			}
		}
		for e := 4; e < 8; e++ {
			if got[b*8+e] != 0 {
				t.Fatalf("gap element written: block %d elem %d = %v", b, e, got[b*8+e])
			}
		}
	}
}

func TestSegmentBindingGetSplit(t *testing.T) {
	const n = 128
	var got []float64
	cfg := Config{NumGhosts: 4, Binding: BindSegment}
	casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		size := 0
		if p.Rank() == 0 {
			size = 8 * n
		}
		win, buf := p.WinAllocate(c, size, nil)
		if p.Rank() == 0 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i * 3)
			}
			copy(buf, mpi.PutFloat64s(vals))
		}
		c.Barrier()
		if p.Rank() == 2 {
			dst := make([]byte, 8*n)
			win.LockAll(mpi.AssertNone)
			win.Get(dst, 0, 0, mpi.TypeOf(mpi.Float64, n))
			win.UnlockAll()
			got = mpi.GetFloat64s(dst)
		}
		c.Barrier()
	})
	for i := range got {
		if got[i] != float64(i*3) {
			t.Fatalf("element %d = %v", i, got[i])
		}
	}
}

func TestSegmentBindingAtomicsSingleChunk(t *testing.T) {
	// Fetch-and-op under segment binding routes to the byte owner.
	var old int64
	cfg := Config{NumGhosts: 2, Binding: BindSegment}
	casperRun(t, casperConfig(6, 6), cfg, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 32, nil)
		if p.Rank() == 1 {
			copy(buf[16:], mpi.PutInt64(5))
		}
		c.Barrier()
		if p.Rank() == 0 {
			res := make([]byte, 8)
			win.LockAll(mpi.AssertNone)
			win.FetchAndOp(mpi.PutInt64(10), res, 1, 16, mpi.Int64, mpi.OpSum)
			win.Flush(1)
			old = mpi.GetInt64(res)
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 1 && mpi.GetInt64(buf[16:]) != 15 {
			t.Errorf("target = %d", mpi.GetInt64(buf[16:]))
		}
	})
	if old != 5 {
		t.Fatalf("old = %d", old)
	}
}

func TestMultiGhostAccumulatesPreserveAtomicityWithRankBinding(t *testing.T) {
	// Many origins accumulate to one target with 4 ghosts; rank binding
	// must keep all of them on one ghost so the validator stays clean
	// (the validator runs in casperRun) and the sum is exact.
	var sum float64
	const perOrigin = 16
	casperRun(t, casperConfig(16, 8), Config{NumGhosts: 4}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() != 0 {
			win.LockAll(mpi.AssertNone)
			for i := 0; i < perOrigin; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			win.UnlockAll()
		}
		c.Barrier()
		if p.Rank() == 0 {
			sum = mpi.GetFloat64s(buf)[0]
		}
	})
	if want := float64(7 * perOrigin); sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestUnsafeNoBindingTriggersValidator(t *testing.T) {
	// Ablation (DESIGN.md decision 1/5): random distribution of
	// accumulates across ghosts breaks MPI's atomicity/ordering; the
	// validator must flag it. This is exactly the hazard Section III-B
	// binding prevents.
	mcfg := casperConfig(8, 8)
	ccfg := Config{NumGhosts: 4, UnsafeNoBinding: true}
	w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		p, ghost := Init(r, ccfg)
		if ghost {
			return
		}
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() != 0 {
			win.LockAll(mpi.AssertNone)
			for i := 0; i < 64; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
			win.UnlockAll()
		}
		c.Barrier()
		p.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Validator().Ok() {
		t.Fatal("validator missed the unbound multi-ghost accumulate hazard")
	}
}

func TestDynamicRandomSpreadsPutsAfterFlush(t *testing.T) {
	// After a flush (static-binding-free interval), random balancing
	// sends puts to multiple ghosts; before it, static binding pins
	// them to one.
	ghostAMs := func(lb LoadBalance) []int64 {
		cfg := Config{NumGhosts: 4, LoadBalance: lb}
		w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
			c := p.CommWorld()
			win, _ := p.WinAllocate(c, 1024, nil)
			c.Barrier()
			if p.Rank() == 1 {
				win.Lock(0, mpi.LockShared, mpi.AssertNone)
				win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
				win.Flush(0) // opens the dynamic interval
				for i := 0; i < 64; i++ {
					win.Put(mpi.PutFloat64s([]float64{1}), 0, 8*(i%8), mpi.Scalar(mpi.Float64))
				}
				win.Unlock(0)
			}
			c.Barrier()
		})
		var out []int64
		for _, g := range []int{4, 5, 6, 7} {
			out = append(out, w.RankByID(g).Stats()[mpi.SoftwareAMs])
		}
		return out
	}
	static := ghostAMs(LBStatic)
	random := ghostAMs(LBRandom)
	busyStatic, busyRandom := 0, 0
	for i := range static {
		if static[i] > 0 {
			busyStatic++
		}
		if random[i] > 0 {
			busyRandom++
		}
	}
	if busyStatic != 1 {
		t.Fatalf("static binding used %d ghosts (%v), want 1", busyStatic, static)
	}
	if busyRandom < 3 {
		t.Fatalf("random balancing used %d ghosts (%v), want >= 3", busyRandom, random)
	}
}

func TestDynamicAccumulatesStayBound(t *testing.T) {
	// Even with random balancing, accumulates must stay on the bound
	// ghost (ordering/atomicity, III-B-3).
	cfg := Config{NumGhosts: 4, LoadBalance: LBRandom}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 64, nil)
		c.Barrier()
		if p.Rank() == 1 {
			win.Lock(0, mpi.LockShared, mpi.AssertNone)
			win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			win.Flush(0)
			for i := 0; i < 32; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
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
	if busy != 1 {
		t.Fatalf("accumulates leaked to %d ghosts", busy)
	}
}

func TestOpCountingBalancesMixedLoad(t *testing.T) {
	// Accumulates pin to the bound ghost; op-counting must steer the
	// puts toward the other ghosts (Fig. 7(b) mechanism).
	cfg := Config{NumGhosts: 2, LoadBalance: LBOpCounting}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 1024, nil)
		c.Barrier()
		if p.Rank() == 1 {
			win.Lock(0, mpi.LockShared, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
			win.Flush(0)
			for i := 0; i < 40; i++ {
				win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0,
					mpi.Scalar(mpi.Float64), mpi.OpSum)
				win.Put(mpi.PutFloat64s([]float64{1}), 0, 8, mpi.Scalar(mpi.Float64))
			}
			win.Unlock(0)
		}
		c.Barrier()
	})
	g0 := w.RankByID(6).Stats()[mpi.SoftwareAMs] // node ghosts at local 6? see below
	g1 := w.RankByID(7).Stats()[mpi.SoftwareAMs]
	total := g0 + g1
	if total != 81 {
		t.Fatalf("total ghost AMs = %d (g0=%d g1=%d)", total, g0, g1)
	}
	// Balance: neither ghost should have more than ~65% of the load.
	hi := g0
	if g1 > hi {
		hi = g1
	}
	if float64(hi)/float64(total) > 0.65 {
		t.Fatalf("op-counting failed to balance: %d vs %d", g0, g1)
	}
}

// TestOnlyCountingPoliciesKeepLBCounters: the per-node load-balancing
// counters are read by op- and byte-counting alone, so a handle under
// static binding or random load balancing routes puts and accumulates
// without allocating them, while a counting handle keeps them.
func TestOnlyCountingPoliciesKeepLBCounters(t *testing.T) {
	for _, lb := range []LoadBalance{LBStatic, LBRandom, LBOpCounting, LBByteCounting} {
		t.Run(lb.String(), func(t *testing.T) {
			var cw *casperWin
			w := casperRun(t, casperConfig(8, 8), Config{NumGhosts: 2, LoadBalance: lb}, func(p *Process) {
				c := p.CommWorld()
				win, _ := p.WinAllocate(c, 1024, nil)
				c.Barrier()
				if p.Rank() == 1 {
					cw = win.(*casperWin)
					win.Lock(0, mpi.LockShared, mpi.AssertNone)
					win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
					win.Flush(0) // every ghost lock acquired: puts may balance
					for i := 0; i < 8; i++ {
						win.Accumulate(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
						win.Put(mpi.PutFloat64s([]float64{1}), 0, 8, mpi.Scalar(mpi.Float64))
					}
					win.Unlock(0)
				}
				c.Barrier()
			})
			dynamic := w.RankByID(cw.p.r.Rank()).Stats()[mpi.Dynamic]
			counting := lb == LBOpCounting || lb == LBByteCounting
			if (dynamic > 0) != (lb != LBStatic) {
				t.Fatalf("%d puts balanced dynamically under %v", dynamic, lb)
			}
			if (cw.nodeLB != nil) != counting {
				t.Errorf("under %v the handle's counters are %v after routing", lb, cw.nodeLB)
			}
		})
	}
}

func TestByteCountingBalancesUnevenSizes(t *testing.T) {
	// Large puts to one ghost inflate its byte count; byte-counting
	// must route later puts away (Fig. 7(c) mechanism).
	cfg := Config{NumGhosts: 2, LoadBalance: LBByteCounting}
	w := casperRun(t, casperConfig(8, 8), cfg, func(p *Process) {
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 1<<16, nil)
		c.Barrier()
		if p.Rank() == 1 {
			win.Lock(0, mpi.LockShared, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{1}), 0, 0, mpi.Scalar(mpi.Float64))
			win.Flush(0)
			big := make([]float64, 512)
			small := make([]float64, 2)
			for i := 0; i < 16; i++ {
				win.Put(mpi.PutFloat64s(big), 0, 0, mpi.TypeOf(mpi.Float64, 512))
				win.Put(mpi.PutFloat64s(small), 0, 8192, mpi.TypeOf(mpi.Float64, 2))
			}
			win.Unlock(0)
		}
		c.Barrier()
	})
	b0 := w.RankByID(6).Stats()[mpi.BytesIn]
	b1 := w.RankByID(7).Stats()[mpi.BytesIn]
	total := b0 + b1
	hi := b0
	if b1 > hi {
		hi = b1
	}
	if float64(hi)/float64(total) > 0.75 {
		t.Fatalf("byte-counting failed to balance bytes: %d vs %d", b0, b1)
	}
}

// TestSplitterPartitionProperty checks, for random datatypes and
// displacements, that segment splitting partitions the operation
// exactly: pieces are disjoint, ordered, within one chunk each, aligned
// to whole elements, and cover precisely the bytes of the original
// datatype with the original payload.
func TestSplitterPartitionProperty(t *testing.T) {
	var cw *casperWin
	mcfg := casperConfig(12, 12)
	w, err := mpi.NewWorld(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: 4, Binding: BindSegment})
		if ghost {
			return
		}
		size := 0
		if p.Rank() == 0 {
			size = 8 * 512
		}
		win, _ := p.WinAllocate(p.CommWorld(), size, nil)
		if p.Rank() == 1 {
			cw = win.(*casperWin)
		}
		p.CommWorld().Barrier()
		p.Finalize()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if cw == nil {
		t.Fatal("no wrapper captured")
	}

	rng := w.Engine().Rand()
	ti := &cw.layout[0]
	for trial := 0; trial < 500; trial++ {
		count := 1 + rng.Intn(6)
		blockLen := 1 + rng.Intn(6)
		stride := blockLen + rng.Intn(4)
		dt := mpi.Vector(mpi.Float64, count, blockLen, stride)
		maxDisp := ti.size - dt.Extent()
		if maxDisp < 0 {
			continue
		}
		disp := (rng.Intn(maxDisp+1) / 8) * 8 // element aligned
		src := make([]byte, dt.Size())
		for i := range src {
			src[i] = byte(rng.Intn(256))
		}
		abs := ti.base + disp
		pieces := cw.splitBySegments(ti, abs, dt, src, nil)

		// Reconstruct the byte map from pieces and compare.
		type span struct{ lo, hi int }
		var want []span
		dt.Blocks(func(off, n int) { want = append(want, span{abs + off, abs + off + n}) })
		covered := map[int]byte{}
		packed := 0
		prevEnd := -1
		for _, pc := range pieces {
			if !pc.dt.Contiguous() {
				t.Fatalf("trial %d: noncontiguous piece", trial)
			}
			n := pc.dt.Size()
			if pc.disp < prevEnd {
				t.Fatalf("trial %d: pieces out of order", trial)
			}
			prevEnd = pc.disp + n
			// Piece must fit within one chunk.
			if pc.disp/ti.chunk != (pc.disp+n-1)/ti.chunk {
				// The last chunk absorbs the remainder.
				if cw.ownerOf(ti, pc.disp) != ti.ghosts[len(ti.ghosts)-1] {
					t.Fatalf("trial %d: piece [%d,%d) spans chunks (chunk=%d)",
						trial, pc.disp, pc.disp+n, ti.chunk)
				}
			}
			if cw.ownerOf(ti, pc.disp) != pc.ghost {
				t.Fatalf("trial %d: piece assigned to wrong ghost", trial)
			}
			for i := 0; i < n; i++ {
				if _, dup := covered[pc.disp+i]; dup {
					t.Fatalf("trial %d: byte %d covered twice", trial, pc.disp+i)
				}
				covered[pc.disp+i] = pc.src[i]
			}
			packed += n
		}
		if packed != dt.Size() {
			t.Fatalf("trial %d: pieces carry %d bytes, want %d", trial, packed, dt.Size())
		}
		// Every datatype byte covered with the right payload byte.
		si := 0
		for _, sp := range want {
			for b := sp.lo; b < sp.hi; b++ {
				v, ok := covered[b]
				if !ok {
					t.Fatalf("trial %d: byte %d not covered", trial, b)
				}
				if v != src[si] {
					t.Fatalf("trial %d: byte %d carries wrong payload", trial, b)
				}
				si++
				delete(covered, b)
			}
		}
		if len(covered) != 0 {
			t.Fatalf("trial %d: %d stray bytes covered", trial, len(covered))
		}
	}
}

func TestRouteBoundsChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-window op")
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
		win, _ := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{1, 2}), 1, 0, mpi.TypeOf(mpi.Float64, 2))
			win.UnlockAll()
		}
		c.Barrier()
	})
	w.Run()
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// casperConfig builds an mpi.Config sized for n total ranks at ppn.
func casperConfig(n, ppn int) mpi.Config {
	nodes := (n + ppn - 1) / ppn
	return mpi.Config{
		Machine:  cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:        n,
		PPN:      ppn,
		Net:      netmodel.CrayXC30(),
		Seed:     11,
		Validate: true,
	}
}

// casperRun launches a world where every rank passes through core.Init;
// user ranks run main and then Finalize.
func casperRun(t *testing.T, mcfg mpi.Config, ccfg Config, main func(p *Process)) *mpi.World {
	t.Helper()
	w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		p, ghost := Init(r, ccfg)
		if ghost {
			return
		}
		main(p)
		p.Finalize()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := w.Validator(); v != nil && !v.Ok() {
		t.Fatalf("validator: %v", v.Violations())
	}
	return w
}

func TestGhostLocalIndicesSpreadOverNUMA(t *testing.T) {
	cases := []struct {
		ppn, numa, per, g int
		want              []int
	}{
		{24, 2, 12, 2, []int{11, 23}},
		{24, 2, 12, 4, []int{10, 11, 22, 23}},
		{16, 2, 12, 2, []int{11, 15}}, // second domain only partially occupied
		{24, 1, 24, 1, []int{23}},
		{4, 2, 12, 2, []int{2, 3}}, // all ranks in first domain
	}
	for _, c := range cases {
		got := ghostLocalIndices(c.ppn, c.numa, c.per, c.g)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ghostLocalIndices(ppn=%d numa=%d per=%d g=%d) = %v, want %v",
				c.ppn, c.numa, c.per, c.g, got, c.want)
		}
	}
}

func TestInitCarvesUserWorld(t *testing.T) {
	// 2 nodes x 8 ranks, 2 ghosts per node -> 12 user processes.
	sizes := map[int]int{}
	casperRun(t, casperConfig(16, 8), Config{NumGhosts: 2}, func(p *Process) {
		sizes[p.Rank()] = p.Size()
		if p.CommWorld().Size() != p.Size() {
			t.Error("CommWorld size mismatch")
		}
	})
	if len(sizes) != 12 {
		t.Fatalf("%d user processes ran, want 12", len(sizes))
	}
	for r, s := range sizes {
		if s != 12 {
			t.Fatalf("rank %d saw size %d", r, s)
		}
		if r < 0 || r >= 12 {
			t.Fatalf("unexpected user rank %d", r)
		}
	}
}

func TestInitRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{{NumGhosts: 0}, {NumGhosts: 8}} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			w, _ := mpi.NewWorld(casperConfig(8, 8))
			w.Launch(func(r *mpi.Rank) { Init(r, cfg) })
			w.Run()
		}()
	}
}

func TestBoundGhostPrefersSameNUMA(t *testing.T) {
	w, err := mpi.NewWorld(casperConfig(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	var d *deployment
	w.Launch(func(r *mpi.Rank) {
		if r.Rank() == 0 {
			dd, err := buildDeployment(r, Config{NumGhosts: 2})
			if err != nil {
				t.Errorf("buildDeployment: %v", err)
				return
			}
			d = dd
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Ghosts on a 24-core node with 2 NUMA domains: local 11 and 23.
	if !reflect.DeepEqual(d.ghostsByNode[0], []int{11, 23}) {
		t.Fatalf("ghosts = %v", d.ghostsByNode[0])
	}
	place := d.place
	for _, u := range d.usersByNode[0] {
		b := d.boundGhost(u)
		if !place.SameNUMA(u, b) {
			t.Errorf("user %d (numa %d) bound to ghost %d (numa %d)",
				u, place.NUMA(u), b, place.NUMA(b))
		}
	}
}

func TestBoundGhostBalancesWithinNUMA(t *testing.T) {
	w, _ := mpi.NewWorld(casperConfig(24, 24))
	var d *deployment
	w.Launch(func(r *mpi.Rank) {
		if r.Rank() == 0 {
			d, _ = buildDeployment(r, Config{NumGhosts: 4})
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 ghosts: two per NUMA domain; users of each domain spread over
	// both of their domain's ghosts.
	counts := map[int]int{}
	for _, u := range d.usersByNode[0] {
		counts[d.boundGhost(u)]++
	}
	if len(counts) != 4 {
		t.Fatalf("users bound to %d distinct ghosts, want 4 (counts %v)", len(counts), counts)
	}
}

func TestUserLocalIndexContiguous(t *testing.T) {
	w, _ := mpi.NewWorld(casperConfig(16, 8))
	var d *deployment
	w.Launch(func(r *mpi.Rank) {
		if r.Rank() == 0 {
			d, _ = buildDeployment(r, Config{NumGhosts: 2})
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		for i, u := range d.usersByNode[node] {
			if d.userLocalIndex(u) != i {
				t.Fatalf("node %d user %d localIndex = %d, want %d",
					node, u, d.userLocalIndex(u), i)
			}
		}
	}
	if d.maxUsers != 6 {
		t.Fatalf("maxUsers = %d, want 6", d.maxUsers)
	}
}

func TestFinalizeShutsDownGhostsCleanly(t *testing.T) {
	// The run must terminate without deadlock: ghosts exit their loops.
	w := casperRun(t, casperConfig(8, 4), Config{NumGhosts: 1}, func(p *Process) {
		p.CommWorld().Barrier()
	})
	if w == nil {
		t.Fatal("no world")
	}
}

func TestZeroSizeWindowsEverywhere(t *testing.T) {
	// Every rank allocating zero bytes must still produce a working
	// window object (ops are simply illegal, but sync calls work).
	casperRun(t, casperConfig(6, 3), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		win, buf := p.WinAllocate(c, 0, nil)
		if len(buf) != 0 {
			t.Errorf("buf len %d", len(buf))
		}
		win.Fence(mpi.ModeNoPrecede)
		win.Fence(mpi.ModeNoSucceed)
		c.Barrier()
		win.Free()
	})
}

func TestSingleUserPerNode(t *testing.T) {
	// ppn=2 with 1 ghost leaves exactly one user per node — the Fig. 5
	// deployment shape; everything must still work.
	var got float64
	casperRun(t, casperConfig(4, 2), Config{NumGhosts: 1}, func(p *Process) {
		c := p.CommWorld()
		if p.Size() != 2 {
			t.Fatalf("users = %d", p.Size())
		}
		win, buf := p.WinAllocate(c, 8, nil)
		c.Barrier()
		if p.Rank() == 0 {
			win.Lock(1, mpi.LockExclusive, mpi.AssertNone)
			win.Put(mpi.PutFloat64s([]float64{3}), 1, 0, mpi.Scalar(mpi.Float64))
			win.Unlock(1)
		}
		c.Barrier()
		if p.Rank() == 1 {
			got = mpi.GetFloat64s(buf)[0]
		}
	})
	if got != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMoreGhostsThanUsersPerNode(t *testing.T) {
	// 4 ghosts serving 2 users per node.
	var sum float64
	casperRun(t, casperConfig(12, 6), Config{NumGhosts: 4}, func(p *Process) {
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
	if sum != 3 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestParseEpochs(t *testing.T) {
	e, err := parseEpochs("fence, lock")
	if err != nil || !e.fence || !e.lock || e.pscw || e.lockall {
		t.Fatalf("parse = %+v, %v", e, err)
	}
	if _, err := parseEpochs("bogus"); err == nil {
		t.Fatal("bogus epoch accepted")
	}
	d, _ := parseEpochs(DefaultEpochs)
	if !d.fence || !d.pscw || !d.lock || !d.lockall || !d.needActive() {
		t.Fatal("default epochs incomplete")
	}
	if d.String() != "fence,pscw,lockall,lock" {
		t.Fatalf("String = %q", d.String())
	}
	lockOnly, _ := parseEpochs("lock")
	if lockOnly.needActive() {
		t.Fatal("lock-only should not need the active window")
	}
}

func TestConfigStringers(t *testing.T) {
	if BindRank.String() != "rank" || BindSegment.String() != "segment" {
		t.Error("binding strings")
	}
	for lb, want := range map[LoadBalance]string{
		LBStatic: "static", LBRandom: "random",
		LBOpCounting: "op-counting", LBByteCounting: "byte-counting",
	} {
		if lb.String() != want {
			t.Errorf("%d.String() = %q", int(lb), lb.String())
		}
	}
}

func TestDoubleFinalizePanics(t *testing.T) {
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
		p.Finalize()
		p.Finalize()
	})
	w.Run()
}

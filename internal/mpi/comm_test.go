package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// testConfig builds a world config with enough nodes for n ranks at ppn.
func testConfig(n, ppn int) Config {
	nodes := (n + ppn - 1) / ppn
	return Config{
		Machine: cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:       n,
		PPN:     ppn,
		Net:     netmodel.CrayXC30(),
		Seed:    7,
	}
}

func mustRun(t *testing.T, cfg Config, main func(r *Rank)) *World {
	t.Helper()
	w, err := Run(cfg, main)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	var got []byte
	var st Status
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Send(1, 42, []byte("hello"))
		} else {
			got, st = c.Recv(0, 42)
		}
	})
	if string(got) != "hello" || st.Source != 0 || st.Tag != 42 {
		t.Fatalf("got %q, status %+v", got, st)
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	var recvDone sim.Time
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			r.Compute(50 * sim.Microsecond)
			c.Send(1, 1, []byte("x"))
		} else {
			c.Recv(0, 1)
			recvDone = r.Now()
		}
	})
	if recvDone < sim.Time(50*sim.Microsecond) {
		t.Fatalf("recv completed at %v, before the send was issued", recvDone)
	}
}

func TestRecvWildcards(t *testing.T) {
	var srcs []int
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		switch r.Rank() {
		case 0:
			for i := 0; i < 2; i++ {
				_, st := c.Recv(AnySource, AnyTag)
				srcs = append(srcs, st.Source)
			}
		default:
			r.Compute(sim.Duration(r.Rank()) * sim.Microsecond)
			c.Send(0, 100+r.Rank(), []byte{byte(r.Rank())})
		}
	})
	if len(srcs) != 2 {
		t.Fatalf("received %d messages", len(srcs))
	}
	// Rank 1 computes less, so its message arrives first.
	if srcs[0] != 1 || srcs[1] != 2 {
		t.Fatalf("srcs = %v", srcs)
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	var first, second Status
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 6, []byte("six"))
		} else {
			// Receive tag 6 first even though tag 5 arrives first.
			_, first = c.Recv(0, 6)
			_, second = c.Recv(0, 5)
		}
	})
	if first.Tag != 6 || second.Tag != 5 {
		t.Fatalf("tags = %d, %d", first.Tag, second.Tag)
	}
}

func TestMessagesDoNotCrossCommunicators(t *testing.T) {
	var gotTag int
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		dup := c.Dup()
		if r.Rank() == 0 {
			c.Send(1, 9, []byte("world"))
			dup.Send(1, 9, []byte("dup"))
		} else {
			data, st := dup.Recv(0, 9)
			if string(data) != "dup" {
				t.Errorf("dup comm got %q", data)
			}
			gotTag = st.Tag
			data, _ = c.Recv(0, 9)
			if string(data) != "world" {
				t.Errorf("world comm got %q", data)
			}
		}
	})
	if gotTag != 9 {
		t.Fatalf("tag = %d", gotTag)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	exits := make([]sim.Time, 4)
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		r.Compute(sim.Duration(10*r.Rank()) * sim.Microsecond)
		c.Barrier()
		exits[r.Rank()] = r.Now()
	})
	// Everyone leaves at the same instant, no earlier than the slowest
	// arrival (30us).
	for i := 1; i < 4; i++ {
		if exits[i] != exits[0] {
			t.Fatalf("exits = %v", exits)
		}
	}
	if exits[0] < sim.Time(30*sim.Microsecond) {
		t.Fatalf("barrier exited at %v before slowest arrival", exits[0])
	}
}

func TestAllreduceSum(t *testing.T) {
	results := make([][]float64, 4)
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		results[r.Rank()] = c.AllreduceFloat64([]float64{float64(r.Rank()), 1}, OpSum)
	})
	for i, res := range results {
		if res[0] != 6 || res[1] != 4 {
			t.Fatalf("rank %d: %v", i, res)
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	var res []float64
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		out := c.AllreduceFloat64([]float64{float64(r.Rank() * r.Rank())}, OpMax)
		if r.Rank() == 0 {
			res = out
		}
	})
	if res[0] != 4 {
		t.Fatalf("max = %v", res)
	}
}

func TestAllgatherInt(t *testing.T) {
	var out []int
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		got := r.CommWorld().AllgatherInt(r.Rank() * 10)
		if r.Rank() == 2 {
			out = got
		}
	})
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("allgather = %v", out)
		}
	}
}

func TestSplitByParity(t *testing.T) {
	type info struct{ rank, size int }
	infos := make([]info, 6)
	mustRun(t, testConfig(6, 6), func(r *Rank) {
		c := r.CommWorld()
		sub := c.Split(r.Rank()%2, r.Rank())
		infos[r.Rank()] = info{sub.Rank(), sub.Size()}
		// World rank translation must be consistent.
		if sub.WorldRank(sub.Rank()) != r.Rank() {
			t.Errorf("rank %d: WorldRank round trip failed", r.Rank())
		}
	})
	for wr, in := range infos {
		if in.size != 3 || in.rank != wr/2 {
			t.Fatalf("rank %d: %+v", wr, in)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		color := 0
		if r.Rank() == 2 {
			color = -1 // MPI_UNDEFINED
		}
		sub := c.Split(color, 0)
		if r.Rank() == 2 {
			if sub != nil {
				t.Error("undefined color returned a comm")
			}
		} else if sub.Size() != 2 {
			t.Errorf("size = %d", sub.Size())
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	ranks := make([]int, 4)
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		// Reverse order by key.
		sub := c.Split(0, -r.Rank())
		ranks[r.Rank()] = sub.Rank()
	})
	want := []int{3, 2, 1, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestDupIsIndependent(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		d := c.Dup()
		if d.ID() == c.ID() {
			t.Error("dup shares comm ID")
		}
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			t.Error("dup changed rank/size")
		}
	})
}

func TestCommAccessors(t *testing.T) {
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		if wr := c.WorldRank(r.Rank()); wr != r.Rank() {
			t.Errorf("WorldRank(%d) = %d on the world comm", r.Rank(), wr)
		}
		g := c.Group()
		if len(g) != 3 || g[2] != 2 {
			t.Errorf("Group = %v", g)
		}
		if c.String() == "" {
			t.Error("empty comm string")
		}
	})
}

func TestManyRanksBarrierScales(t *testing.T) {
	const n = 64
	count := 0
	mustRun(t, testConfig(n, 16), func(r *Rank) {
		c := r.CommWorld()
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
		count++
	})
	if count != n {
		t.Fatalf("count = %d", count)
	}
}

func TestStatsMessagesSent(t *testing.T) {
	w := mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, i, nil)
			}
		} else {
			for i := 0; i < 5; i++ {
				c.Recv(0, i)
			}
		}
	})
	if got := w.RankByID(0).Stats()[MessagesSent]; got != 5 {
		t.Fatalf("MessagesSent = %d", got)
	}
}

func TestWorldConfigErrors(t *testing.T) {
	if _, err := NewWorld(Config{N: 2, PPN: 2}); err == nil {
		t.Error("nil Net accepted")
	}
	cfg := testConfig(2, 2)
	cfg.N = 100 // exceeds machine
	if _, err := NewWorld(cfg); err == nil {
		t.Error("oversized world accepted")
	}
	bad := testConfig(2, 2)
	bad.Net = &netmodel.Params{Name: "bad", ThreadSafety: 0, ThreadAM: 0}
	if _, err := NewWorld(bad); err == nil {
		t.Error("invalid net accepted")
	}
}

func TestProgressModeString(t *testing.T) {
	for m, want := range map[ProgressMode]string{
		ProgressNone: "none", ProgressThread: "thread", ProgressInterrupt: "interrupt",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestCommFromGroup(t *testing.T) {
	mustRun(t, testConfig(6, 6), func(r *Rank) {
		// Only ranks 1, 3, 5 participate — no other rank calls anything.
		if r.Rank()%2 == 0 {
			return
		}
		g := r.CommFromGroup([]int{5, 1, 3}) // order-insensitive
		if g.Size() != 3 {
			t.Errorf("size = %d", g.Size())
		}
		if g.WorldRank(0) != 1 || g.WorldRank(2) != 5 {
			t.Errorf("membership order wrong: %v", g.Group())
		}
		// Collectives work over the group alone.
		sum := g.AllreduceFloat64([]float64{float64(r.Rank())}, OpSum)
		if sum[0] != 9 {
			t.Errorf("sum = %v", sum)
		}
		// Repeated creation yields distinct, matched instances.
		g2 := r.CommFromGroup([]int{1, 3, 5})
		if g2.ID() == g.ID() {
			t.Error("second instance shares comm ID")
		}
		g2.Barrier()
	})
}

// TestCommFromGroupKeying pins the registry key: rank lists whose
// decimal digits concatenate identically are different groups, the
// caller's order does not matter, and a rank's n-th use of a group joins
// the group's n-th communicator. The registry is keyed by a hash it never
// trusts: with every rank set forced into one bucket the same must hold.
func TestCommFromGroupKeying(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { testCommFromGroupKeying(t, nil) })
	t.Run("colliding", func(t *testing.T) {
		testCommFromGroupKeying(t, func([]int) uint64 { return 7 })
	})
}

func testCommFromGroupKeying(t *testing.T, hash func([]int) uint64) {
	first := map[int]*Comm{}
	second := map[int]*Comm{}
	w, err := NewWorld(testConfig(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	w.groupHashHook = hash
	w.Launch(func(r *Rank) {
		switch r.Rank() {
		case 1, 23:
			first[r.Rank()] = r.CommFromGroup([]int{1, 23})
			second[r.Rank()] = r.CommFromGroup([]int{1, 23})
		case 3:
			first[3] = r.CommFromGroup([]int{3, 12})
			second[3] = r.CommFromGroup([]int{12, 3})
		case 12:
			first[12] = r.CommFromGroup([]int{12, 3}) // unsorted: same group
			second[12] = r.CommFromGroup([]int{3, 12})
		default:
			return
		}
		first[r.Rank()].Barrier()
		second[r.Rank()].Barrier()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hash != nil && len(w.groupComms) != 1 {
		t.Fatalf("hook not in effect: %d buckets", len(w.groupComms))
	}
	for _, pair := range [][2]int{{1, 23}, {3, 12}} {
		a, b := pair[0], pair[1]
		if first[a].ID() != first[b].ID() || second[a].ID() != second[b].ID() {
			t.Errorf("ranks %d and %d disagree: first %d/%d second %d/%d", a, b,
				first[a].ID(), first[b].ID(), second[a].ID(), second[b].ID())
		}
		if first[a].ID() == second[a].ID() {
			t.Errorf("rank %d: second use returned the first instance", a)
		}
		if got := first[a].Group(); len(got) != 2 || got[0] != a || got[1] != b {
			t.Errorf("group of {%d,%d} = %v", a, b, got)
		}
	}
	if first[1].ID() == first[3].ID() {
		t.Error("{1,23} and {12,3} share a communicator")
	}
}

func TestCommFromGroupP2P(t *testing.T) {
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		if r.Rank() == 0 || r.Rank() == 3 {
			g := r.CommFromGroup([]int{0, 3})
			if r.Rank() == 0 {
				g.Send(1, 7, []byte("grp"))
			} else {
				data, st := g.Recv(0, 7)
				if string(data) != "grp" || st.Source != 0 {
					t.Errorf("got %q from %d", data, st.Source)
				}
			}
		}
	})
}

func TestWorldSummaryAggregates(t *testing.T) {
	w := mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			for i := 0; i < 3; i++ {
				win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			}
			win.UnlockAll()
			c.Send(1, 1, nil)
		} else {
			c.Recv(0, 1)
		}
	})
	s := w.Summary()
	if s.Ranks != 2 || s.Counters[OpsIssued] != 3 || s.Counters[SoftwareAMs] != 3 || s.Counters[MessagesSent] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
	rank, ams := w.BusiestRank()
	if rank != 1 || ams != 3 {
		t.Fatalf("busiest = %d/%d", rank, ams)
	}
}

func TestDeterministicWorldRuns(t *testing.T) {
	run := func() string {
		var out string
		mustRun(t, testConfig(4, 4), func(r *Rank) {
			c := r.CommWorld()
			c.Barrier()
			if r.Rank() == 0 {
				out = fmt.Sprintf("%v", r.Now())
			}
		})
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}

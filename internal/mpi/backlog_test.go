package mpi

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// An in-flight op is one object that waits in one queue at a time
// through the link in its header. These tests hold the two properties
// that design rests on: a backlog costs the allocator its headers and
// nothing else, and an op is never in two queues at once — not even when
// its target dies with the op queued and the transport fails it over.

// TestBackloggedTargetAllocations: with the target computing outside MPI
// most of the time, 1024 accumulates pile up — on the channel's wire
// chain, then on the target's deferred list, then in its service backlog
// — and each costs exactly one header. A second epoch runs on the
// recycled headers for free. Both shapes the experiments accumulate
// hold it: a double sum, and GUPS's scalar MPI_INT64 XOR, which runs the
// integer loop instead of a float64 block kernel.
func TestBackloggedTargetAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  []byte
		dt   Datatype
		op   Op
	}{
		{"float64-sum", PutFloat64s([]float64{1}), Scalar(Float64), OpSum},
		{"int64-bxor", PutInt64(0x5DEECE66D), Scalar(Int64), OpBXor},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 1024
			var fresh, recycled float64
			var peak int
			done := false
			mustRun(t, testConfig(2, 1), func(r *Rank) {
				c := r.CommWorld()
				win, _ := r.WinAllocateRegion(c, 8)
				c.Barrier()
				if r.Rank() == 1 {
					for !done {
						r.Compute(2 * sim.Millisecond)
						win.Sync() // the poll that drains the deferred AMs
					}
					peak = int(r.Stats()[PeakDepth])
					return
				}
				epoch := func() {
					win.Lock(1, LockShared, AssertNone)
					for i := 0; i < n; i++ {
						win.Accumulate(tc.src, 1, 0, tc.dt, tc.op)
					}
					win.Unlock(1)
					r.settle() // the epoch's calls are queued: count what they allocate when they run
				}
				// Warm the scheduler up first. The ladder hands an emptied bucket's
				// storage to the next bucket that fills, so it stops allocating once
				// it owns as many boxes, each as large, as the workload occupies at
				// once. With 1024 ops in flight that takes two epochs (26 objects in
				// the first, 10 in the second, none after): this one and the warm-up
				// call of AllocsPerRun.
				epoch()
				// Several runs each: AllocsPerRun floors the mean, which drops the
				// few objects a collector cycle allocates (its first one starts workers).
				fresh = testing.AllocsPerRun(16, func() {
					r.opFree = nil
					epoch()
				})
				recycled = testing.AllocsPerRun(16, epoch)
				done = true
			})
			if peak < n/2 {
				t.Fatalf("the target's backlog peaked at %d AMs; the workload never queued", peak)
			}
			// The one object besides the headers is the epoch's channel state.
			if fresh != n+1 {
				t.Errorf("%d ops in flight allocate %v objects, want %d: one header each and the channel state", n, fresh, n+1)
			}
			if recycled != 1 {
				t.Errorf("a second epoch on recycled headers allocates %v objects, want 1 (the channel state)", recycled)
			}
		})
	}
}

// TestFailoverWithServiceBacklog kills a ghost while its service backlog
// holds AMs from four origins. Stream failover resubmits every one of
// them — the same op objects — to the surviving ghost, whose backlog
// links them through the very field the dead rank's backlog used: the
// dead backlog must have let go of them first (killRank releases it), or
// an op would sit in two queues and the dead server's promotions would
// walk into the replacement's chain. Every op applies exactly once, and
// the dead rank's queue depth stays where the crash left it, because
// nothing is ever popped from a released backlog.
func TestFailoverWithServiceBacklog(t *testing.T) {
	const (
		ghosts  = 2
		origins = 4
		ops     = 48 // per origin, alternating between its own slot and a shared one
		slot    = 8
	)
	// The origins start together at issueAt and outrun the ghost's service
	// rate several times over, so by crashAt most of their ops are queued.
	issueAt := sim.Time(200 * sim.Microsecond)
	crashAt := issueAt.Add(25 * sim.Microsecond)
	cfg := testConfig(ghosts+origins, ghosts+origins)
	cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{{Rank: 0, At: crashAt}}}
	var depthAtCrash int
	var sums []float64
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		// Every rank exposes the whole node segment, as Casper's ghosts
		// do, so target 1 can stand in for target 0.
		shared, _ := r.WinAllocateShared(c, slot)
		win := r.WinCreate(c, shared.Region().Root())
		win.SetReroute(func(origin, oldTarget, disp int) (int, bool) { return 1, oldTarget == 0 })
		if r.Rank() == 0 {
			r.World().TrackHealth([]int{0, 1})
			r.w.eng.AtBG(crashAt+1, func() { depthAtCrash = r.w.ranks[0].LoadDepth() })
		}
		c.Barrier()
		switch {
		case r.Rank() == 0:
			c.Recv(1, 99) // a ghost: inside MPI until the crash
		case r.Rank() == 1:
			for i := 0; i < origins; i++ {
				c.Recv(AnySource, 7)
			}
			sums = GetFloat64s(win.Region().Bytes())
		default:
			one := PutFloat64s([]float64{1})
			r.Compute(issueAt.Sub(r.Now()))
			win.LockAll(AssertNone)
			for i := 0; i < ops; i++ {
				disp := 0
				if i%2 == 1 {
					disp = r.Rank() * slot
				}
				win.Accumulate(one, 0, disp, Scalar(Float64), OpSum)
			}
			win.UnlockAll()
			c.Send(1, 7, nil)
		}
	})
	if depthAtCrash < 64 {
		t.Fatalf("ghost 0 died holding %d queued AMs, want at least 64", depthAtCrash)
	}
	if got := w.RankByID(0).LoadDepth(); got != depthAtCrash {
		t.Errorf("the dead ghost's queue depth moved from %d to %d: its released backlog was stepped", depthAtCrash, got)
	}
	want := []float64{origins * ops / 2, 0, ops / 2, ops / 2, ops / 2, ops / 2}
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("slot %d = %v, want %v (every op applied exactly once): %v", i, sums[i], want[i], sums)
			break
		}
	}
	s := w.Summary()
	if int(s.Counters[Reroutes]) < depthAtCrash || s.Counters[Abandoned] != 0 {
		t.Errorf("reroutes=%d abandoned=%d, want at least the %d queued ops rerouted and none abandoned", s.Counters[Reroutes], s.Counters[Abandoned], depthAtCrash)
	}
}

// deferredTrace runs four origins × 64 accumulates against a target that
// computes outside MPI while all 256 arrive (they wait on its deferred
// list) and then polls, moving the whole list into the service backlog
// at one instant. It returns the service records in service order.
func deferredTrace(t *testing.T, noFastPath bool) []trace.Service {
	t.Helper()
	cfg := testConfig(5, 5)
	cfg.NoSimFastPath = noFastPath
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	w.SetTracer(tr)
	w.Launch(func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			r.Compute(500 * sim.Microsecond)
			if depth := r.LoadDepth(); depth != 0 {
				t.Errorf("target outside MPI has %d AMs in service, want all of them deferred", depth)
			}
			c.Barrier() // the poll
			if got := GetFloat64s(buf)[0]; got != 256 {
				t.Errorf("target sum = %v, want 256", got)
			}
			return
		}
		win.LockAll(AssertNone)
		for i := 0; i < 64; i++ {
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
		}
		win.UnlockAll()
		c.Barrier()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return tr.Services()
}

// TestDeferredAMsKeepArrivalOrder: the deferred list hands the AMs to the
// service backlog in arrival order with their arrival times intact. The
// eager schedule of a world without fast paths is the reference, and the
// digest pins what the slice-backed lists of PR 17 produced.
func TestDeferredAMsKeepArrivalOrder(t *testing.T) {
	got := deferredTrace(t, false)
	if len(got) != 256 {
		t.Fatalf("%d services traced, want 256", len(got))
	}
	if want := deferredTrace(t, true); !reflect.DeepEqual(got, want) {
		t.Fatal("service records differ from the eager schedule's")
	}
	h := fnv.New64a()
	for i, s := range got {
		if i > 0 && (s.Arrived < got[i-1].Arrived || s.Start != got[i-1].End) {
			t.Fatalf("service %d: arrived %v start %v after a service that arrived %v and ended %v",
				i, s.Arrived, s.Start, got[i-1].Arrived, got[i-1].End)
		}
		fmt.Fprintf(h, "%d %d %d %d\n", s.Origin, s.Arrived, s.Start, s.End)
	}
	// Recorded by running this test at PR 17 (commit 31b4b71).
	const wantLast, wantDigest = sim.Time(692750), uint64(0x933c9eb19904bc09)
	if last := got[len(got)-1].End; last != wantLast || h.Sum64() != wantDigest {
		t.Errorf("last service ends at %d (digest %#x), want %d (%#x)", last, h.Sum64(), wantLast, wantDigest)
	}
}

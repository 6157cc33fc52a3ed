package bench

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// What TestFig5aAllocsPerOp measured when its bound was last set, and how
// far above that a run may read (the same share of it, 11.6 %, that 0.005
// was of the 0.0431 objects per event the test was pinned at before).
const (
	fig5aAllocsPerOp = 0.2384
	allocSlack       = 0.0277
)

// TestFig5aAllocsPerOp holds the event loop's allocation diet end to end:
// one serial fig5a sweep at casperbench's -quick scale, heap objects
// allocated per RMA operation issued. World construction is in the count
// (at this scale it is most of it), so the number moves with the sweep
// size and is only comparable at this scale; what it must not do is grow —
// a closure per event, a boxed payload or an escaping op header on the hot
// path adds 0.5 to 5 objects per op, twenty to two hundred times the
// slack. (Per op, not per event: how many events an op pops is the
// scheduler's business, and fusing steps changes it.) Both counters are
// process-wide, so the test must not run in parallel.
func TestFig5aAllocsPerOp(t *testing.T) {
	e, ok := Get("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	o := tiny()
	o.Parallel = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events, ops := mpi.TotalEventsExecuted(), mpi.TotalOpsIssued()
	e.Run(o)
	events, ops = mpi.TotalEventsExecuted()-events, mpi.TotalOpsIssued()-ops
	runtime.ReadMemStats(&after)
	objects := after.Mallocs - before.Mallocs
	got := float64(objects) / float64(ops)
	t.Logf("fig5a at scale %g: %d objects over %d RMA ops = %.4f allocs/op (%d events, %.4f allocs/event)",
		o.Scale, objects, ops, got, events, float64(objects)/float64(events))
	if bound := fig5aAllocsPerOp + allocSlack; ops == 0 || got > bound {
		t.Fatalf("fig5a allocates %.4f objects per RMA op, want at most %.4f", got, bound)
	}
}

// TestFig5aSwitchesPerOp holds the issue queue's switch diet end to end:
// one serial fig5a sweep at casperbench's -quick scale, coroutine switches
// into a rank per RMA operation issued. Eagerly an origin is switched in
// once per op (twice under Casper, whose redirect overhead is an advance
// of its own): 1.37 per op here. Served, it is switched in once per run of
// back-to-back calls, at the flush, compute or full queue that settles
// it. Both counters are process-wide, so the test must not run in
// parallel.
func TestFig5aSwitchesPerOp(t *testing.T) {
	e, ok := Get("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	o := tiny()
	o.Parallel = 1
	switches, ops := mpi.TotalSwitches(), mpi.TotalOpsIssued()
	e.Run(o)
	switches, ops = mpi.TotalSwitches()-switches, mpi.TotalOpsIssued()-ops
	t.Logf("fig5a at scale %g: %d switches for %d RMA ops = %.3f per op", o.Scale, switches, ops, float64(switches)/float64(ops))
	if ops == 0 || float64(switches) > 0.2*float64(ops) {
		t.Fatalf("fig5a made %d switches for %d RMA ops, want at most 20 %%", switches, ops)
	}
}

// What TestFig6aSwitchesPerOp measured when its bound was last set, and
// how far above that a run may read.
const (
	fig6aSwitchesPerOp = 1.161
	switchSlack        = 0.05
)

// TestFig6aSwitchesPerOp holds the served passive-target epoch to its
// switch diet end to end: one serial fig6a sweep at casperbench's -quick
// scale, coroutine switches into a rank per RMA operation issued. Every
// origin makes one accumulate to every other process inside a lockall
// epoch, which Casper turns into ghost locks taken at each target's first
// touch and released at UnlockAll. While only RMA calls were served, the
// locks, the first touches and the unlock waits switched the origin in,
// 5.17 times per op here; now the event loop runs them all, and an origin
// is switched in at the calls that settle it (the barriers, a full queue). Both counters are
// process-wide, so the test must not run in parallel.
func TestFig6aSwitchesPerOp(t *testing.T) {
	e, ok := Get("fig6a")
	if !ok {
		t.Fatal("fig6a not registered")
	}
	o := tiny()
	o.Parallel = 1
	switches, ops := mpi.TotalSwitches(), mpi.TotalOpsIssued()
	e.Run(o)
	switches, ops = mpi.TotalSwitches()-switches, mpi.TotalOpsIssued()-ops
	got := float64(switches) / float64(ops)
	t.Logf("fig6a at scale %g: %d switches for %d RMA ops = %.3f per op", o.Scale, switches, ops, got)
	if bound := fig6aSwitchesPerOp + switchSlack; ops == 0 || got > bound {
		t.Fatalf("fig6a made %.3f switches per RMA op, want at most %.3f", got, bound)
	}
}

// robustSwitchesPerOp is what TestRobustSwitchesPerOp measured when its
// bound was last set.
const robustSwitchesPerOp = 1.107

// TestRobustSwitchesPerOp holds fault-plan and flow-control worlds to the
// served issue path: one serial faultchaos and one serial overload sweep
// at casperbench's -quick scale, coroutine switches into a rank per RMA
// operation issued. Before every world queued, these worlds ran every call
// in the process — two switches per Casper RMA op (the redirect overhead,
// then the MPI issue), one per lock entry, grant and remote completion
// waited for, one per credit stall — and read 3.484 per op here; 1.144
// while the overload shepherd's windows still synchronized in the
// process. Served, an origin is switched in at the calls that settle it:
// barriers, fences, computes, completions whose results it reads, a full
// queue. Both counters are process-wide, so the test must not run in
// parallel.
func TestRobustSwitchesPerOp(t *testing.T) {
	o := tiny()
	o.Parallel = 1
	switches, ops := mpi.TotalSwitches(), mpi.TotalOpsIssued()
	for _, id := range []string{"faultchaos", "overload"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		e.Run(o)
	}
	switches, ops = mpi.TotalSwitches()-switches, mpi.TotalOpsIssued()-ops
	got := float64(switches) / float64(ops)
	t.Logf("faultchaos+overload at scale %g: %d switches for %d RMA ops = %.3f per op", o.Scale, switches, ops, got)
	if bound := robustSwitchesPerOp + switchSlack; ops == 0 || got > bound {
		t.Fatalf("faultchaos+overload made %.3f switches per RMA op, want at most %.3f", got, bound)
	}
}

// What TestRobustEventsPerOp measured, per experiment, when its bounds were
// last set (the slack is eventSlack's).
var robustEventsPerOp = map[string]float64{
	"faultchaos": 7.514,
	"faultsweep": 4.105,
	"faultapp":   11.337,
}

// TestRobustEventsPerOp holds the fault-plan worlds to their event diet:
// one serial sweep of each at casperbench's -quick scale and seed 42,
// events executed per RMA operation issued. An RMA op's first transport
// ack that the injector leaves alone is no event of its own (deferred at
// the origin's channel like the plain wire's, reliability.sendAck), and
// settled first-attempt retransmission timers are dropped from the timer
// chain. With every first ack an event these read 8.219, 5.036 and 11.515.
// Both counters are process-wide, so the test must not run in parallel.
func TestRobustEventsPerOp(t *testing.T) {
	for _, id := range []string{"faultchaos", "faultsweep", "faultapp"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		o := tiny()
		o.Parallel, o.Seed = 1, 42
		events, ops := mpi.TotalEventsExecuted(), mpi.TotalOpsIssued()
		e.Run(o)
		events, ops = mpi.TotalEventsExecuted()-events, mpi.TotalOpsIssued()-ops
		got := float64(events) / float64(ops)
		t.Logf("%s at scale %g, seed %d: %d events for %d RMA ops = %.3f per op", id, o.Scale, o.Seed, events, ops, got)
		if bound := robustEventsPerOp[id] + eventSlack; ops == 0 || got > bound {
			t.Errorf("%s executed %.3f events per RMA op, want at most %.3f", id, got, bound)
		}
	}
}

// What TestFig5aEventsPerOp measured when its bound was last set, and how
// far above that a run may read.
const (
	fig5aEventsPerOp = 3.516
	eventSlack       = 0.05
)

// TestFig5aEventsPerOp holds the plain wire to its event diet end to end:
// one serial fig5a sweep at casperbench's -quick scale, events executed
// per RMA operation issued. Eagerly every op also pops its ack; deferred
// at the channel (rmaOp.ack), acks pop only where a flush or unlock finds
// the channel's latest one still due, once per drain rather than once per
// op. With an ack event per op this read 4.474 per op here.
// Both counters are process-wide, so the test must not run in parallel.
func TestFig5aEventsPerOp(t *testing.T) {
	e, ok := Get("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	o := tiny()
	o.Parallel = 1
	events, ops := mpi.TotalEventsExecuted(), mpi.TotalOpsIssued()
	e.Run(o)
	events, ops = mpi.TotalEventsExecuted()-events, mpi.TotalOpsIssued()-ops
	got := float64(events) / float64(ops)
	t.Logf("fig5a at scale %g: %d events for %d RMA ops = %.3f per op", o.Scale, events, ops, got)
	if bound := fig5aEventsPerOp + eventSlack; ops == 0 || got > bound {
		t.Fatalf("fig5a executed %.3f events per RMA op, want at most %.3f", got, bound)
	}
}

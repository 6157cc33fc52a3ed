package bench

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// What TestFig5aAllocsPerEvent measured when its bound was last set, and
// how far above that a run may read.
const (
	fig5aAllocsPerEvent = 0.0431
	allocSlack          = 0.005
)

// TestFig5aAllocsPerEvent holds the event loop's allocation diet end to
// end: one serial fig5a sweep at casperbench's -quick scale, heap objects
// allocated per event executed. World construction is in the count (at this
// scale it is most of it), so the number moves with the sweep size and is
// only comparable at this scale; what it must not do is grow — a closure
// per event, a boxed payload or an escaping op header on the hot path adds
// 0.1 to 1 objects per event, twenty to two hundred times the slack.
// Both counters are process-wide, so the test must not run in parallel.
func TestFig5aAllocsPerEvent(t *testing.T) {
	e, ok := Get("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	o := tiny()
	o.Parallel = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := mpi.TotalEventsExecuted()
	e.Run(o)
	events = mpi.TotalEventsExecuted() - events
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("fig5a at scale %g: %d objects over %d events = %.4f allocs/event", o.Scale, after.Mallocs-before.Mallocs, events, got)
	if bound := fig5aAllocsPerEvent + allocSlack; got > bound {
		t.Fatalf("fig5a allocates %.4f objects per event, want at most %.4f", got, bound)
	}
}

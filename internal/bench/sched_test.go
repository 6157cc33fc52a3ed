package bench

// TestSchedHeapLadderIdentical is the experiment-level half of the
// scheduler identity contract (the structure-level half is the
// lockstep fuzz in internal/sim/ladder_test.go): real experiments,
// rendered to bytes, must not move when the event scheduler flips
// between the ladder queue and the heap oracle — serial or sharded.

import (
	"testing"

	"repro/internal/sim"
)

// withScheduler runs f under k and restores the package default.
func withScheduler(k sim.SchedulerKind, f func()) {
	prev := Scheduler()
	SetScheduler(k)
	defer SetScheduler(prev)
	f()
}

func TestSchedHeapLadderIdentical(t *testing.T) {
	cases := []struct {
		id     string
		o      Options
		shards []int
	}{
		{"fig5a", Options{Scale: 0.12, Seed: 42, Parallel: 1}, []int{0, 2}},
		{"fig5b", Options{Scale: 0.12, Seed: 42, Parallel: 1}, []int{0}},
		{"fig7b", Options{Scale: 0.12, Seed: 42, Parallel: 1}, []int{0}},
		{"faultrecover", Options{Scale: 0.25, Seed: 42, Parallel: 1}, []int{0}},
	}
	for _, c := range cases {
		e, ok := Get(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		for _, s := range c.shards {
			o := c.o
			o.Shards = s
			var lad, heap string
			withScheduler(sim.SchedLadder, func() { lad = e.Run(o).CSV() })
			withScheduler(sim.SchedHeap, func() { heap = e.Run(o).CSV() })
			if lad != heap {
				t.Errorf("%s shards=%d: ladder and heap render different bytes:\n--- ladder ---\n%s--- heap ---\n%s",
					c.id, s, lad, heap)
			}
		}
	}
}

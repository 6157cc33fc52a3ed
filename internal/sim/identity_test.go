package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// TestFastPathOnOffIdenticalOnExperiments holds every fast path — advance
// chains, server backlogs, wire chains and the issue queue, whose event
// loop runs an origin's RMA and passive-target synchronization calls
// without switching into it — to the eager reference on whole experiments:
// each one rendered with every engine on the eager schedule
// (sim.RecordEngines(true), as under mpi.Config.NoSimFastPath) and as it
// ships must give the same CSV bytes, and every engine the same event
// count, the same popped (at, seq) keys in the same order, final clock and
// process end times. fig5a is the all-to-all accumulate sweep the queue
// was built for (Casper's redirect overhead as the lead step of each
// queued call), fig5b its put twin on hardware RMA, fig6a and fig6b the
// lockall epochs Casper turns into ghost locks taken at the first touch
// and released, with their waits served, at UnlockAll, fig6c the same
// under segment binding, fig7b mixes put and accumulate under op-counting
// and random dynamic binding, whose random draws take the eager path,
// fig8a GA's get, compute and accumulate with flushes that settle for the
// results they deliver, and abl2 lock-put-unlock epochs with lazy and
// eager lock acquisition. The served runs must also switch less, or the
// comparison is vacuous.
func TestFastPathOnOffIdenticalOnExperiments(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	const quick = 0.12 // casperbench -quick
	for _, id := range []string{"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7b", "fig8a", "abl2"} {
		e, ok := bench.Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", id, seed), func(t *testing.T) {
				run := func(eager bool) (string, []sim.EngineOutcome) {
					stop := sim.RecordEngines(eager)
					csv := e.Run(bench.Options{Scale: quick, Seed: seed, Parallel: 1}).CSV()
					return csv, stop()
				}
				servedCSV, served := run(false)
				eagerCSV, eager := run(true)
				if servedCSV != eagerCSV {
					t.Fatalf("CSV differs:\n--- served\n%s--- eager\n%s", servedCSV, eagerCSV)
				}
				if len(served) == 0 || len(served) != len(eager) {
					t.Fatalf("%d engines served, %d eager", len(served), len(eager))
				}
				var sw, ew int64
				for i := range served {
					sw, ew = sw+served[i].Switches, ew+eager[i].Switches
					served[i].Switches, eager[i].Switches = 0, 0
					if len(served[i].ProcEnds) == 0 {
						t.Fatalf("engine %d: no process finished", i)
					}
					if !reflect.DeepEqual(served[i], eager[i]) {
						t.Fatalf("engine %d:\n served %+v\n eager  %+v", i, served[i], eager[i])
					}
				}
				if sw >= ew {
					t.Fatalf("served runs switched %d times, eager %d: nothing was served", sw, ew)
				}
			})
		}
	}
}

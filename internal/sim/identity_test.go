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
// process end times — counting in, where the eager schedule pops them, the
// acks the served run elides on the plain wire (sim.Engine.Elide), which
// the experiments without fault plans and flow control must do. fig5a is
// the all-to-all accumulate sweep the queue was built for (Casper's
// redirect overhead as the lead step of each queued call), fig5b its put twin on hardware RMA, fig6a and fig6b the
// lockall epochs Casper turns into ghost locks taken at the first touch
// and released, with their waits served, at UnlockAll, fig6c the same
// under segment binding, fig7b mixes put and accumulate under op-counting
// and random dynamic binding, whose random draws take the eager path,
// fig8a GA's get, compute and accumulate with flushes that settle for the
// results they deliver, and abl2 lock-put-unlock epochs with lazy and
// eager lock acquisition. faultchaos, overload, faultapp and faultsweep
// are the worlds with fault plans and flow control: Casper's calls there
// are deferred and expanded where the eager process routes them, against
// detector verdicts, staged bindings and credits that change meanwhile,
// and a frozen app rank stops mid-queue; their recovery lines and failure
// verdict must match too. Under a fault plan (all but overload) the fast
// paths also drop settled retransmission timers from the timer chain
// (DESIGN.md §7), so there the event counts and popped keys of the
// engines that scheduled background events (the plan's machinery) differ
// by design and only their clocks are compared; the experiments'
// fault-free worlds (the baselines of faultchaos and faultapp) are
// compared exactly. The fault-plan worlds must also elide transport acks
// (the first acks the injector leaves alone, deferred like the plain
// wire's). The served runs must also switch less, or the comparison is
// vacuous.
func TestFastPathOnOffIdenticalOnExperiments(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	const quick = 0.12 // casperbench -quick
	faultPlans := map[string]bool{"faultchaos": true, "faultapp": true, "faultsweep": true}
	for _, id := range []string{"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7b", "fig8a", "abl2",
		"faultchaos", "overload", "faultapp", "faultsweep"} {
		e, ok := bench.Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", id, seed), func(t *testing.T) {
				run := func(eager bool) (*bench.Result, []sim.EngineOutcome) {
					stop := sim.RecordEngines(eager)
					res := e.Run(bench.Options{Scale: quick, Seed: seed, Parallel: 1})
					return res, stop()
				}
				servedRes, served := run(false)
				eagerRes, eager := run(true)
				if s, e := servedRes.CSV(), eagerRes.CSV(); s != e {
					t.Fatalf("CSV differs:\n--- served\n%s--- eager\n%s", s, e)
				}
				if !reflect.DeepEqual(servedRes.Recovery, eagerRes.Recovery) || servedRes.Failed != eagerRes.Failed {
					t.Fatalf("recovery differs:\n--- served (failed %v)\n%q\n--- eager (failed %v)\n%q",
						servedRes.Failed, servedRes.Recovery, eagerRes.Failed, eagerRes.Recovery)
				}
				if len(served) == 0 || len(served) != len(eager) {
					t.Fatalf("%d engines served, %d eager", len(served), len(eager))
				}
				var sw, ew, elided, elidedPlan int64
				exact := 0 // engines compared with their events and popped keys
				for i := range served {
					sw, ew = sw+served[i].Switches, ew+eager[i].Switches
					served[i].Switches, eager[i].Switches = 0, 0
					elided += served[i].Elided
					if len(served[i].ProcEnds) == 0 {
						t.Fatalf("engine %d: no process finished", i)
					}
					if faultPlans[id] && (served[i].Background || eager[i].Background) {
						elidedPlan += served[i].Elided
						served[i].Events, eager[i].Events = 0, 0
						served[i].Pops, eager[i].Pops = 0, 0
					} else {
						exact++
					}
					served[i].Elided = 0
					if !reflect.DeepEqual(served[i], eager[i]) {
						t.Fatalf("engine %d:\n served %+v\n eager  %+v", i, served[i], eager[i])
					}
				}
				if sw >= ew {
					t.Fatalf("served runs switched %d times, eager %d: nothing was served", sw, ew)
				}
				if !faultPlans[id] && id != "overload" && elided == 0 {
					t.Fatal("served runs elided no ack on the plain wire")
				}
				if (id == "faultchaos" || id == "faultapp") && (exact == 0 || elided == 0) {
					t.Fatalf("%d of %d engines compared exactly, %d acks elided: the fault-free baselines were not", exact, len(served), elided)
				}
				if faultPlans[id] && elidedPlan == 0 {
					t.Fatal("the fault-plan worlds elided no transport ack")
				}
				t.Logf("%d of %d engines compared exactly, %d acks elided, %d of them under a fault plan", exact, len(served), elided, elidedPlan)
			})
		}
	}
}

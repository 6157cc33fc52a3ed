package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// TestShadowOracleOnExperiments runs real experiments with a heap popped
// in lockstep behind every engine's ladder (sim.SetShadowOracle): the first
// pop on which the two disagree panics with both keys. It is the whole of
// the scheduler's experiment-level check — rendering each experiment under
// either scheduler and comparing CSVs, which it replaced, was the weaker
// one: the shipped ladder popped (327707, seq 9465) before (327702, seq
// 1190) on fig5a and the bytes still agreed, because the two events
// commuted. fig5a is the lockstep all-to-all whose instants land on coarse
// bucket starts, serial and on two shard engines; fig5b its put twin; fig7b
// keeps the deepest ghost backlogs and fig8a the largest payloads; the
// faultchaos slice is 40 fault-plan worlds of resident far timers under
// near-future churn, and faultsweep, faultapp and faultrecover reach the
// queue under seqs reserved long before (retransmission timers, replay).
// Every event a world executes must have been popped from its ladder, so
// every world's shadow must have checked at least as many pops.
func TestShadowOracleOnExperiments(t *testing.T) {
	defer sim.SetShadowOracle()()
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	const quick = 0.12 // casperbench -quick
	for _, c := range []struct {
		id     string
		scale  float64
		shards int
	}{
		{"fig5a", quick, 0},
		{"fig5a", quick, 2},
		{"fig5b", quick, 0},
		{"fig7b", quick, 0},
		{"fig8a", quick, 0},
		{"faultchaos", 40.0 / 240, 0},
		{"faultsweep", quick, 0},
		{"faultapp", quick, 0},
		{"faultrecover", quick, 0},
	} {
		e, ok := bench.Get(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/shards%d/seed%d", c.id, c.shards, seed), func(t *testing.T) {
				res := e.Run(bench.Options{Scale: c.scale, Seed: seed, Parallel: 1, Shards: c.shards})
				if res.Failed {
					t.Errorf("%s seed %d failed:\n%s", c.id, seed, res.CSV())
				}
				engines, short := sim.TakeShadowShortfalls()
				if engines == 0 {
					t.Fatal("no engine was built under the shadow oracle")
				}
				for _, line := range short {
					t.Error(line)
				}
			})
		}
	}
}

package bench

import "testing"

// BenchmarkChaosWorld is one faultchaos world end to end per workload — a
// 2-node Casper world built, run under a seeded fault schedule with the
// validator on, closed — the unit `robust_paths` runs 480 of. The seeds
// are the first of each workload's rotation whose schedule carries message
// faults and at least one crash. With -benchmem, B/op and allocs/op are
// what the reliable transport, the detector and the recovery machinery
// cost the allocator per world.
func BenchmarkChaosWorld(b *testing.B) {
	ghosts, apps := chaosFaultCandidates()
	for wi, name := range []string{"stencil", "gups", "matmul", "lockloop"} {
		b.Run(name, func(b *testing.B) {
			base, err := runChaosWorld(wi, 42, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			seed := int64(wi + 1)
			plan := chaosPlanFor(seed, base.summary.EndTime, ghosts, apps)
			for plan.DropRate == 0 || len(plan.Crashes)+len(plan.AppCrashes) == 0 {
				seed += 4
				plan = chaosPlanFor(seed, base.summary.EndTime, ghosts, apps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := runChaosWorld(wi, 42, plan, nil)
				if err != nil {
					b.Fatal(err)
				}
				if bad := chaosCheck(out, nil, base); len(bad) > 0 {
					b.Fatalf("seed %d: %v", seed, bad)
				}
			}
		})
	}
}

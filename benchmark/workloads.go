package main

// pass is one experiment run: bench.Get(Exp).Run(bench.Options{Scale,
// Seed, Parallel: 1, Shards}) — the call `casperbench -run` makes.
type pass struct {
	Exp    string  `json:"exp"`
	Scale  float64 `json:"scale"`
	Shards int     `json:"shards,omitempty"`
}

// workload is one row of the benchmark: the passes a measured run makes,
// the smaller passes a child makes first to warm up, and why the row
// exists. Sizes are host seconds on the reference container (see
// README.md); event counts repeat exactly.
type workload struct {
	Name string
	Why  string
	// Passes is the measured pass: every experiment run once, in order.
	Passes []pass
	// Warm is the warm-up pass, sized to 0.5–1 s: first world, stack
	// growth, pool fill, heap growth towards the working set. A warm
	// pass that shares (Exp, Scale) with another pass must render the
	// same bytes, so the sharded row warms both engines at one scale
	// and gets a serial-vs-sharded identity check in every child.
	Warm []pass
	// Reference passes run once per workload, unmeasured, in a child of
	// their own: outputs the measured passes must equal byte for byte and
	// that no other pass of the row renders — the serial engine's, for the
	// sharded row. At goldenSeed the manifest is that reference, so they
	// are skipped there.
	Reference []pass
	// NominalWallS is the reference-host wall-clock of one measured
	// pass. It only sizes a run: --seconds / NominalWallS children.
	NominalWallS float64
}

// childProcs is every child's GOMAXPROCS, capped by the host's CPUs:
// min(2, CPUs). Users run one-shot casperbench processes that inherit
// GOMAXPROCS = CPUs, and the second P is not free — every sim.Proc switch
// of the serial engine may become a cross-thread wake-up (README.md,
// findings) — so the rows are measured with it, not at a pinned
// GOMAXPROCS=1 that nobody runs.
const childProcs = 2

// workloads is the fixed matrix. Names are part of BENCHMARK.json; later
// PRs are judged by them, so rows are added, never renamed.
var workloads = []workload{
	{
		Name: "acc_alltoall",
		Why:  "fig5a@0.5: software-AM all-to-all, steady state; sim scheduler + mpi AM path dominate (the historical yardstick)",
		Passes: []pass{
			{Exp: "fig5a", Scale: 0.5},
		},
		Warm:         []pass{{Exp: "fig5a", Scale: 0.25}},
		NominalWallS: 2.6,
	},
	{
		Name: "acc_alltoall_sharded",
		Why:  "fig5a@0.5 with Shards=2: the same simulated work through the sharded engine (mailboxes, barriers); bytes must equal acc_alltoall",
		Passes: []pass{
			{Exp: "fig5a", Scale: 0.5, Shards: 2},
		},
		Warm: []pass{
			{Exp: "fig5a", Scale: 0.25},
			{Exp: "fig5a", Scale: 0.25, Shards: 2},
		},
		Reference:    []pass{{Exp: "fig5a", Scale: 0.5}},
		NominalWallS: 3.1,
	},
	{
		Name: "wide_world",
		Why:  "fig6a@1: worlds up to 384 ranks; world/window construction, goroutine spawn, core rank binding, GC — setup- and memory-bound",
		Passes: []pass{
			{Exp: "fig6a", Scale: 1},
		},
		Warm:         []pass{{Exp: "fig6a", Scale: 0.5}},
		NominalWallS: 5.6,
	},
	{
		Name: "dyn_binding",
		Why:  "fig7b@1: mixed PUT beside ACC under core op-counting dynamic binding; goroutine-switch bound — the put-beside-accumulate row",
		Passes: []pass{
			{Exp: "fig7b", Scale: 1},
		},
		Warm:         []pass{{Exp: "fig7b", Scale: 0.12}},
		NominalWallS: 3.1,
	},
	{
		Name: "tce_ga",
		Why:  "fig8a@2 + fig8c@2: GA get/compute/accumulate with 24^2-64^2 double tiles; malloc+memmove+GC bound, bypasses the scheduler",
		Passes: []pass{
			{Exp: "fig8a", Scale: 2},
			{Exp: "fig8c", Scale: 2},
		},
		Warm: []pass{
			{Exp: "fig8a", Scale: 0.5},
			{Exp: "fig8c", Scale: 0.5},
		},
		NominalWallS: 5.4,
	},
	{
		Name: "robust_paths",
		Why:  "faultchaos@2 + overload@4 + faultapp@1 + faultsweep@1: 480 short fault-plan worlds plus flow control; reliable transport, recovery, world churn",
		Passes: []pass{
			{Exp: "faultchaos", Scale: 2},
			{Exp: "overload", Scale: 4},
			{Exp: "faultapp", Scale: 1},
			{Exp: "faultsweep", Scale: 1},
		},
		Warm: []pass{
			{Exp: "faultchaos", Scale: 0.4},
			{Exp: "overload", Scale: 1},
			{Exp: "faultapp", Scale: 1},
			{Exp: "faultsweep", Scale: 0.25},
		},
		NominalWallS: 3.8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeScale is the scale every pass runs at under -smoke.
const smokeScale = 0.12

// atScale returns the workload with every pass, warm or measured, at one
// scale (the -smoke shape).
func (w workload) atScale(s float64) workload {
	rescale := func(in []pass) []pass {
		out := make([]pass, len(in))
		for i, p := range in {
			p.Scale = s
			out[i] = p
		}
		return out
	}
	w.Passes, w.Warm, w.Reference = rescale(w.Passes), rescale(w.Warm), rescale(w.Reference)
	return w
}

package stencil

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func stencilConfig(n, ppn int) mpi.Config {
	nodes := (n + ppn - 1) / ppn
	return mpi.Config{
		Machine:  cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:        n,
		PPN:      ppn,
		Net:      netmodel.CrayXC30(),
		Seed:     9,
		Validate: true,
	}
}

// gather runs the distributed solve and assembles the global interior.
func gather(t *testing.T, ranks int, ghosts int, p Params) ([]float64, float64) {
	t.Helper()
	interior := make([][]float64, ranks)
	var residual float64
	body := func(env mpi.Env) {
		res := Run(env, p)
		interior[env.Rank()] = res.Local
		residual = res.Residual
	}
	var w *mpi.World
	var err error
	if ghosts == 0 {
		w, err = mpi.Run(stencilConfig(ranks, ranks), func(r *mpi.Rank) { body(r) })
	} else {
		ppn := ranks/2 + ghosts // two nodes
		w, err = mpi.Run(stencilConfig(2*ppn, ppn), func(r *mpi.Rank) {
			cp, ghost := core.Init(r, core.Config{NumGhosts: ghosts})
			if ghost {
				return
			}
			body(cp)
			cp.Finalize()
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	if v := w.Validator(); v != nil && !v.Ok() {
		t.Fatalf("validator: %v", v.Violations())
	}
	var all []float64
	for _, part := range interior {
		all = append(all, part...)
	}
	return all, residual
}

// serialInterior extracts the interior rows of the serial solution.
func serialInterior(p Params) []float64 {
	full := Serial(p)
	return full[p.N : (p.N-1)*p.N]
}

func TestMatchesSerialReference(t *testing.T) {
	p := Params{N: 18, Iterations: 12}
	want := serialInterior(p)
	for _, ranks := range []int{2, 4, 8} {
		got, _ := gather(t, ranks, 0, p)
		if len(got) != len(want) {
			t.Fatalf("%d ranks: %d cells, want %d", ranks, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%d ranks: cell %d = %v, want %v", ranks, i, got[i], want[i])
			}
		}
	}
}

func TestMatchesSerialOverCasper(t *testing.T) {
	p := Params{N: 18, Iterations: 10}
	want := serialInterior(p)
	got, _ := gather(t, 4, 2, p)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAssertsDoNotChangeResults(t *testing.T) {
	base := Params{N: 10, Iterations: 6}
	withAsserts := base
	withAsserts.Asserts = true
	a, ra := gather(t, 4, 0, base)
	b, rb := gather(t, 4, 0, withAsserts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("asserts changed cell %d: %v vs %v", i, a[i], b[i])
		}
	}
	if ra != rb {
		t.Fatalf("residuals differ: %v vs %v", ra, rb)
	}
}

func TestResidualDecreases(t *testing.T) {
	short := Params{N: 10, Iterations: 2}
	long := Params{N: 10, Iterations: 40}
	_, rShort := gather(t, 2, 0, short)
	_, rLong := gather(t, 2, 0, long)
	if rLong >= rShort {
		t.Fatalf("residual did not decrease: %v -> %v", rShort, rLong)
	}
}

func TestHeatFlowsDownward(t *testing.T) {
	p := Params{N: 10, Iterations: 50}
	got, _ := gather(t, 2, 0, p)
	n := p.N
	// Column 4: temperature must decrease monotonically away from the
	// hot top edge.
	prev := 1.0
	for i := 0; i < n-2; i++ {
		v := got[i*n+4]
		if v > prev+1e-12 {
			t.Fatalf("temperature rose away from the hot edge at row %d: %v > %v", i, v, prev)
		}
		prev = v
	}
	if got[4] <= 0 {
		t.Fatal("no heat diffused into the interior")
	}
}

// crashRun runs the stencil over Casper with g ghosts per node on two
// nodes, optionally crashing a ghost mid-run, and returns the assembled
// interior plus recovery counters.
func crashRun(t *testing.T, users, g int, p Params, plan *fault.Plan) ([]float64, mpi.WorldSummary) {
	t.Helper()
	ppn := users/2 + g
	cfg := stencilConfig(2*ppn, ppn)
	cfg.Validate = false // the validator models a fault-free world
	cfg.Fault = plan
	interior := make([][]float64, users)
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		cp, ghost := core.Init(r, core.Config{NumGhosts: g})
		if ghost {
			return
		}
		res := Run(cp, p)
		interior[cp.Rank()] = res.Local
		cp.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, part := range interior {
		all = append(all, part...)
	}
	return all, w.Summary()
}

// TestGhostCrashRecoversExactly kills a ghost mid-stencil and checks the
// computed grid is bit-identical to the fault-free run: with surviving
// ghosts on the node the bound targets fail over to them, and with g=1
// the node degrades to Original-mode target-side progress.
func TestGhostCrashRecoversExactly(t *testing.T) {
	p := Params{N: 18, Iterations: 30}
	const users = 4
	for _, g := range []int{1, 2} {
		ppn := users/2 + g
		n := 2 * ppn
		base, baseSum := crashRun(t, users, g, p, nil)
		ghosts, err := core.GhostRanks(cluster.Machine{Nodes: 2, CoresPerNode: 24, NUMAPerNode: 2}, n, ppn, g)
		if err != nil {
			t.Fatal(err)
		}
		// Two victims per config: the last ghost of node 1 (an ordinary
		// ghost — the sequencer, the lowest ghost rank, lives on node 0)
		// and the sequencer itself, whose death additionally forces the
		// next-lowest surviving ghost to take over command ordering.
		for _, v := range []struct {
			name   string
			victim int
		}{
			{"ordinary", ghosts[1][len(ghosts[1])-1]},
			{"sequencer", ghosts[0][0]},
		} {
			plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{
				{Rank: v.victim, At: sim.Time(0.4 * float64(baseSum.EndTime))},
			}}
			got, sum := crashRun(t, users, g, p, plan)
			degraded := sum.Counters[mpi.Degraded] // counted by user ranks only
			if len(got) != len(base) {
				t.Fatalf("g=%d %s: %d cells, want %d", g, v.name, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("g=%d %s: cell %d = %v, want %v (not bit-identical after crash)",
						g, v.name, i, got[i], base[i])
				}
			}
			if sum.Counters[mpi.RanksFailed] != 1 {
				t.Fatalf("g=%d %s: RanksFailed = %d, want 1", g, v.name, sum.Counters[mpi.RanksFailed])
			}
			if sum.Counters[mpi.Reroutes] == 0 {
				t.Fatalf("g=%d %s: crash recovered without any reroutes", g, v.name)
			}
			if v.name == "sequencer" && sum.Counters[mpi.Successions] == 0 {
				t.Fatalf("g=%d: sequencer killed but no ghost performed a succession", g)
			}
			if g == 1 && degraded == 0 {
				t.Fatalf("g=1 %s: node lost its only ghost but never degraded to target-side progress", v.name)
			}
			if g > 1 && degraded != 0 {
				t.Fatalf("g=%d %s: degraded %d ops despite surviving ghosts", g, v.name, degraded)
			}
		}
	}
}

func TestValidateParams(t *testing.T) {
	if (Params{N: 2, Iterations: 1}).Validate(2) == nil {
		t.Error("tiny N accepted")
	}
	if (Params{N: 10, Iterations: 0}).Validate(2) == nil {
		t.Error("zero iterations accepted")
	}
	if (Params{N: 11, Iterations: 1}).Validate(2) == nil {
		t.Error("indivisible rows accepted")
	}
	if (Params{N: 10, Iterations: 1}).Validate(4) != nil {
		t.Error("valid params rejected")
	}
}

package tce

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func tceConfig(n, ppn int, prog mpi.ProgressMode, oversub bool) mpi.Config {
	nodes := (n + ppn - 1) / ppn
	return mpi.Config{
		Machine:              cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:                    n,
		PPN:                  ppn,
		Net:                  netmodel.CrayXC30(),
		Seed:                 5,
		Progress:             prog,
		ThreadOversubscribed: oversub,
		Validate:             true,
	}
}

func TestParamsValidate(t *testing.T) {
	if (Params{TilesPerDim: 0, TileSize: 4}).Validate() == nil {
		t.Error("zero tiles accepted")
	}
	if (Params{TilesPerDim: 4, TileSize: 0}).Validate() == nil {
		t.Error("zero tile size accepted")
	}
	if (Params{TilesPerDim: 2, TileSize: 4}).Validate() != nil {
		t.Error("valid params rejected")
	}
}

func TestComputePerTaskPhases(t *testing.T) {
	ccsd := Params{TilesPerDim: 2, TileSize: 16, Phase: PhaseCCSD}.withDefaults()
	tri := Params{TilesPerDim: 2, TileSize: 16, Phase: PhaseTriples}.withDefaults()
	if tri.computePerTask() <= ccsd.computePerTask() {
		t.Fatal("(T) must be more compute-intensive than CCSD")
	}
	if PhaseCCSD.String() != "CCSD" || PhaseTriples.String() != "(T)" {
		t.Error("phase strings")
	}
}

func TestRunCompletesAllTasksAndData(t *testing.T) {
	p := Params{TilesPerDim: 4, TileSize: 4, Phase: PhaseCCSD}
	total := 0
	var sum float64
	w, err := mpi.Run(tceConfig(4, 4, mpi.ProgressNone, false), func(r *mpi.Rank) {
		res := Run(r, p)
		total += res.Tasks
		// Verify the output array contents via a fresh array read —
		// C was destroyed, so instead recompute expectation from task
		// count; data checked in the dedicated test below.
		_ = res
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	_ = sum
	if total != 16 {
		t.Fatalf("tasks executed = %d, want 16", total)
	}
}

// TestRunDataCorrectness runs Run's task loop over arrays that share
// their staging, as Run's do, but keeps C alive to check its contents:
// every task's product, formed in place in the tile it got from A, lands
// once in C.
func TestRunDataCorrectness(t *testing.T) {
	p := Params{TilesPerDim: 4, TileSize: 4, Phase: PhaseCCSD}.withDefaults()
	var got []float64
	_, err := mpi.Run(tceConfig(4, 4, mpi.ProgressNone, false), func(r *mpi.Rank) {
		env := mpi.Env(r)
		n := p.TilesPerDim * p.TileSize
		a := ga.MustCreate(env, "A", n, n)
		b := ga.MustCreate(env, "B", n, n)
		c := ga.MustCreate(env, "C", n, n)
		ga.ShareStaging(a, b, c)
		a.Fill(1)
		b.Fill(2)
		c.Fill(0)
		counter := ga.NewCounter(env)
		p.contract(env, a, b, c, counter)
		c.Sync()
		if env.Rank() == 0 {
			got = make([]float64, n*n)
			c.Get(0, n, 0, n, got)
		}
		c.Sync()
		counter.Destroy()
		c.Destroy()
		b.Destroy()
		a.Destroy()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != CheckSum {
			t.Fatalf("C[%d] = %v, want %v", i, v, CheckSum)
		}
	}
}

func TestRunOverCasperSameResults(t *testing.T) {
	p := Params{TilesPerDim: 4, TileSize: 4, Phase: PhaseCCSD}
	total := 0
	_, err := mpi.Run(tceConfig(6, 6, mpi.ProgressNone, false), func(r *mpi.Rank) {
		cp, ghost := core.Init(r, core.Config{NumGhosts: 2})
		if ghost {
			return
		}
		res := Run(cp, p)
		total += res.Tasks
		cp.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 {
		t.Fatalf("tasks = %d, want 16", total)
	}
}

func TestCasperFasterThanOriginalOnTriples(t *testing.T) {
	// The Fig. 8(c) headline on a small scale: with compute-heavy
	// tasks, Casper beats original MPI despite dedicating cores to
	// ghosts.
	// Tile 24 puts ~166us of compute between MPI calls — the
	// compute-dominant regime where lack of progress stalls fetches.
	p := Params{TilesPerDim: 4, TileSize: 24, Phase: PhaseTriples}
	elapsedMax := func(casper bool) sim.Duration {
		var maxEl sim.Duration
		var err error
		if casper {
			_, err = mpi.Run(tceConfig(12, 12, mpi.ProgressNone, false), func(r *mpi.Rank) {
				cp, ghost := core.Init(r, core.Config{NumGhosts: 2})
				if ghost {
					return
				}
				res := Run(cp, p)
				if res.Elapsed > maxEl {
					maxEl = res.Elapsed
				}
				cp.Finalize()
			})
		} else {
			_, err = mpi.Run(tceConfig(12, 12, mpi.ProgressNone, false), func(r *mpi.Rank) {
				res := Run(r, p)
				if res.Elapsed > maxEl {
					maxEl = res.Elapsed
				}
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return maxEl
	}
	orig := elapsedMax(false)
	casper := elapsedMax(true)
	if casper >= orig {
		t.Fatalf("casper %v not faster than original %v on (T) workload", casper, orig)
	}
}

func TestGetStallsDropWithCasper(t *testing.T) {
	p := Params{TilesPerDim: 4, TileSize: 24, Phase: PhaseTriples}
	getTime := func(casper bool) sim.Duration {
		var total sim.Duration
		var err error
		if casper {
			_, err = mpi.Run(tceConfig(8, 8, mpi.ProgressNone, false), func(r *mpi.Rank) {
				cp, ghost := core.Init(r, core.Config{NumGhosts: 2})
				if ghost {
					return
				}
				total += Run(cp, p).GetTime
				cp.Finalize()
			})
		} else {
			_, err = mpi.Run(tceConfig(8, 8, mpi.ProgressNone, false), func(r *mpi.Rank) {
				total += Run(r, p).GetTime
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	orig := getTime(false)
	casper := getTime(true)
	if casper >= orig {
		t.Fatalf("GET stall time did not drop: casper %v vs original %v", casper, orig)
	}
}

func TestDeploymentsTableI(t *testing.T) {
	ds := Deployments(24)
	if len(ds) != 4 {
		t.Fatalf("%d deployments", len(ds))
	}
	byName := map[string]Deployment{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	if d := byName["Original MPI"]; d.PPN != 24 || d.UserCores != 24 || d.Ghosts != 0 {
		t.Errorf("original: %+v", d)
	}
	if d := byName["Casper"]; d.PPN != 24 || d.Ghosts != 4 || d.UserCores != 20 {
		t.Errorf("casper: %+v", d)
	}
	if d := byName["Thread(O)"]; d.PPN != 24 || !d.Oversub || d.Progress != mpi.ProgressThread {
		t.Errorf("thread(O): %+v", d)
	}
	if d := byName["Thread(D)"]; d.PPN != 12 || d.Oversub || d.UserCores != 12 {
		t.Errorf("thread(D): %+v", d)
	}
}

func TestDynamicTaskBalancing(t *testing.T) {
	// With the atomic counter, no rank should hog all tasks.
	p := Params{TilesPerDim: 6, TileSize: 4, Phase: PhaseCCSD}
	counts := map[int]int{}
	_, err := mpi.Run(tceConfig(4, 4, mpi.ProgressNone, false), func(r *mpi.Rank) {
		counts[r.Rank()] = Run(r, p).Tasks
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, n := range counts {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d ranks executed tasks: %v", busy, counts)
	}
}

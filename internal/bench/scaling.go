package bench

import (
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// allToAllWorkload is the Section IV-B-2 pattern: every process
// communicates with all others in iterated communication–computation–
// communication cycles — one double-sized RMA op to each peer, ~100 us
// of computation, then ten ops to each peer, then a flush that needs
// remote completion at every peer.
//
// The computation length carries deterministic per-rank jitter. On a
// real machine system noise staggers the ranks' phases the same way;
// the stagger is what exposes the progress problem: a rank's flush
// waits on peers that are still inside their compute phase, unless an
// asynchronous progress entity services the operations meanwhile.
func allToAllWorkload(kind mpi.OpKind, jitter func() sim.Duration) func(env mpi.Env) sim.Duration {
	const iterations = 5
	return func(env mpi.Env) sim.Duration {
		c := env.CommWorld()
		win, _ := env.WinAllocate(c, 64, nil)
		c.Barrier()
		start := env.Now()
		one := mpi.PutFloat64s([]float64{1})
		issue := func(t int) {
			if kind == mpi.KindPut {
				win.Put(one, t, 0, mpi.Scalar(mpi.Float64))
			} else {
				win.Accumulate(one, t, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
			}
		}
		win.LockAll(mpi.AssertNone)
		for iter := 0; iter < iterations; iter++ {
			for t := 0; t < env.Size(); t++ {
				if t != env.Rank() {
					issue(t)
				}
			}
			env.Compute(sim.Microseconds(100) + jitter())
			for i := 0; i < 10; i++ {
				for t := 0; t < env.Size(); t++ {
					if t != env.Rank() {
						issue(t)
					}
				}
			}
			win.FlushAll()
		}
		win.UnlockAll()
		c.Barrier()
		return env.Now().Sub(start)
	}
}

// runScaling measures the all-to-all workload for one approach at one
// process count (ppn = 1 user process per node, as in the paper).
// shards > 0 runs the simulation on the sharded engine (see
// mpi.Config.Shards).
func runScaling(a approach, kind mpi.OpKind, procs int, seed int64, shards int) float64 {
	// Rank bodies run on different shard engines concurrently; the
	// reduction below is the only cross-rank state they touch.
	var mu sync.Mutex
	var maxEl sim.Duration
	body := func(env mpi.Env) {
		// The compute jitter is a per-rank stream seeded from (seed,
		// rank), independent of the simulation engine's RNG: the draws —
		// and therefore the measured times — are identical on the serial
		// and sharded engines, for any shard worker count.
		rng := rand.New(rand.NewSource(seed + 0x9E3779B9*int64(env.Rank()+1)))
		jitter := func() sim.Duration {
			return sim.Duration(rng.Int63n(int64(sim.Microseconds(100))))
		}
		el := allToAllWorkload(kind, jitter)(env)
		mu.Lock()
		if el > maxEl {
			maxEl = el
		}
		mu.Unlock()
	}
	if a.ghosts > 0 {
		ppn := 1 + a.ghosts
		cfg := worldConfig(a.net(), procs*ppn, ppn, a.prog, a.oversub, seed)
		cfg.Shards = shards
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			panic(err)
		}
		w.Launch(func(r *mpi.Rank) {
			p, ghost := core.Init(r, core.Config{NumGhosts: a.ghosts})
			if ghost {
				return
			}
			body(p)
			p.Finalize()
		})
		if err := w.Run(); err != nil {
			panic(err)
		}
		w.Close()
	} else {
		cfg := worldConfig(a.net(), procs, 1, a.prog, a.oversub, seed)
		cfg.Shards = shards
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			panic(err)
		}
		w.Launch(func(r *mpi.Rank) { body(r) })
		if err := w.Run(); err != nil {
			panic(err)
		}
		w.Close()
	}
	return maxEl.Millis()
}

func scalingExperiment(id, figure, title string, kind mpi.OpKind,
	approaches func() []approach) {
	register(Experiment{
		ID:     id,
		Figure: figure,
		Title:  title,
		Run: func(o Options) *Result {
			o = o.withDefaults()
			procs := pow2Sweep(2, o.scaleInt(128, 16))
			res := &Result{
				ID: id, Title: title,
				XLabel: "processes_ppn1", YLabel: "ms",
			}
			res.X = toF(procs)
			as := approaches()
			series := make([]Series, len(as))
			for ai, a := range as {
				series[ai] = Series{Name: a.name, Y: make([]float64, len(procs))}
			}
			o.grid(len(as), len(procs), func(ai, pi int) {
				series[ai].Y[pi] = runScaling(as[ai], kind, procs[pi], o.Seed, o.Shards)
			})
			res.Series = series
			return res
		},
	})
}

func init() {
	// Fig. 5(a): accumulate on the regular XC30 — all software.
	scalingExperiment("fig5a", "Fig. 5(a)",
		"Accumulate scaling on Cray XC30", mpi.KindAcc,
		func() []approach {
			return []approach{origMPI(), threadAp(), dmappAp(), casperAp(1)}
		})
	// Fig. 5(b): put — DMAPP and Casper ride hardware RMA.
	scalingExperiment("fig5b", "Fig. 5(b)",
		"Put scaling on Cray XC30", mpi.KindPut,
		func() []approach {
			casperHW := approach{name: "Casper", net: netmodel.CrayXC30DMAPP,
				prog: mpi.ProgressNone, ghosts: 1}
			return []approach{origMPI(), threadAp(), dmappAp(), casperHW}
		})
	// Fig. 5(c): accumulate on Fusion with MVAPICH.
	scalingExperiment("fig5c", "Fig. 5(c)",
		"Accumulate scaling on Fusion (MVAPICH)", mpi.KindAcc,
		func() []approach {
			return []approach{
				{name: "Original MPI", net: netmodel.FusionMVAPICH, prog: mpi.ProgressNone},
				{name: "Thread", net: netmodel.FusionMVAPICH, prog: mpi.ProgressThread},
				{name: "Casper", net: netmodel.FusionMVAPICH, prog: mpi.ProgressNone, ghosts: 1},
			}
		})
}

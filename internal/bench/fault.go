package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
)

// Robustness experiments: the fault-injection counterpart of the paper's
// evaluation. None of these regenerate a paper figure — Casper (IPDPS
// 2015) assumes a fault-free run — but they validate that the ghost
// redirection machinery recovers from ghost failure and that the
// reliability layer is free when unused:
//
//	faultzero    — a zero-rate fault plan is observationally identical
//	               to no plan at all (virtual time overhead must be 0%).
//	faultrecover — a ghost crash mid-stencil: the run completes and the
//	               computed grid stays bit-identical to the fault-free
//	               run (failover to surviving ghosts; with g=1 the node
//	               degrades to Original-mode target-side progress).
//	faultsweep   — message drop rates vs virtual time for Original MPI,
//	               Thread and Casper: retransmission recovers every loss.

// stencilResult is one full Casper stencil run under a fault plan.
type stencilResult struct {
	interior [][]float64 // per user rank: its interior rows
	elapsed  sim.Duration
	summary  mpi.WorldSummary
}

// runStencilFault runs the fence stencil over Casper on 2 nodes with
// users/2 user processes and g ghosts per node.
func runStencilFault(users, g int, p stencil.Params, seed int64, plan *fault.Plan) stencilResult {
	ppn := users/2 + g
	n := 2 * ppn
	cfg := worldConfig(netmodel.CrayXC30(), n, ppn, mpi.ProgressNone, false, seed)
	cfg.Fault = plan
	out := stencilResult{interior: make([][]float64, users)}
	w := runCasper(cfg, core.Config{NumGhosts: g}, func(env mpi.Env) {
		res := stencil.Run(env, p)
		out.interior[env.Rank()] = res.Local
		if res.Elapsed > out.elapsed {
			out.elapsed = res.Elapsed
		}
	})
	out.summary = w.Summary()
	return out
}

// userRanks returns the world ranks that are user (application)
// processes: everything the ghost carving did not claim.
func userRanks(n int, ghostsByNode [][]int) []int {
	isGhost := make(map[int]bool)
	for _, gs := range ghostsByNode {
		for _, g := range gs {
			isGhost[g] = true
		}
	}
	var out []int
	for r := 0; r < n; r++ {
		if !isGhost[r] {
			out = append(out, r)
		}
	}
	return out
}

// sameGrids reports whether two assembled interiors are bit-identical.
func sameGrids(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func faultStencilParams() stencil.Params {
	// 32 interior rows divide evenly across 4 or 8 users; enough
	// iterations that a mid-run crash leaves real work after detection.
	return stencil.Params{N: 34, Iterations: 120}
}

func init() {
	register(Experiment{
		ID:     "faultzero",
		Figure: "robustness",
		Title:  "Zero-rate fault plan overhead (must be 0%)",
		Run: func(o Options) *Result {
			o = o.withDefaults()
			res := &Result{
				ID: "faultzero", Title: "Zero-rate fault plan overhead (must be 0%)",
				XLabel: "user_procs", YLabel: "ms",
			}
			p := faultStencilParams()
			userCounts := []int{4, 8}
			bs := make([]stencilResult, len(userCounts))
			zs := make([]stencilResult, len(userCounts))
			o.grid(len(userCounts), 2, func(ui, vi int) {
				if vi == 0 {
					bs[ui] = runStencilFault(userCounts[ui], 1, p, o.Seed, nil)
				} else {
					zs[ui] = runStencilFault(userCounts[ui], 1, p, o.Seed, &fault.Plan{Seed: o.Seed})
				}
			})
			base, zero := make([]float64, len(userCounts)), make([]float64, len(userCounts))
			for ui, users := range userCounts {
				res.X = append(res.X, float64(users))
				b, z := bs[ui], zs[ui]
				base[ui] = b.elapsed.Millis()
				zero[ui] = z.elapsed.Millis()
				ov := 0.0
				if b.elapsed > 0 {
					ov = 100 * (float64(z.elapsed) - float64(b.elapsed)) / float64(b.elapsed)
				}
				res.Notes = append(res.Notes, fmt.Sprintf(
					"users=%d: overhead=%.3f%% identical_output=%v end_base=%v end_zero=%v",
					users, ov, sameGrids(b.interior, z.interior),
					b.summary.EndTime, z.summary.EndTime))
			}
			res.Series = []Series{{Name: "No plan", Y: base}, {Name: "Zero-rate plan", Y: zero}}
			return res
		},
	})

	register(Experiment{
		ID:     "faultrecover",
		Figure: "robustness",
		Title:  "Ghost crash mid-stencil: failover and degraded progress",
		Run: func(o Options) *Result {
			o = o.withDefaults()
			res := &Result{
				ID: "faultrecover", Title: "Ghost crash mid-stencil: failover and degraded progress",
				XLabel: "ghosts_per_node", YLabel: "ms",
			}
			const users = 8
			p := faultStencilParams()
			ghostCounts := []int{1, 2, 4}
			type recoverPoint struct {
				b, c   stencilResult
				victim int
				at     sim.Time
			}
			pts := make([]recoverPoint, len(ghostCounts))
			// The crash time derives from the fault-free run's end time,
			// so the two runs of one point stay sequential; the points
			// themselves are independent.
			o.points(len(ghostCounts), func(gi int) {
				g := ghostCounts[gi]
				ppn := users/2 + g
				n := 2 * ppn
				b := runStencilFault(users, g, p, o.Seed, nil)
				ghosts, err := core.GhostRanks(machineFor(n, ppn), n, ppn, g)
				if err != nil {
					panic(fmt.Sprintf("bench: %v", err))
				}
				// Kill the last ghost of node 1 at 40% of the fault-free
				// end time. An ordinary ghost, not the sequencer (the
				// globally lowest ghost rank, on node 0): this point
				// isolates failover/degradation cost, while sequencer
				// death — succession included — is exercised by the
				// faultchaos sweep and the stencil/core recovery tests.
				victim := ghosts[1][len(ghosts[1])-1]
				at := sim.Time(0.4 * float64(b.summary.EndTime))
				c := runStencilFault(users, g, p, o.Seed, &fault.Plan{
					Seed:    o.Seed,
					Crashes: []fault.Crash{{Rank: victim, At: at}},
				})
				pts[gi] = recoverPoint{b: b, c: c, victim: victim, at: at}
			})
			base, crash := make([]float64, len(ghostCounts)), make([]float64, len(ghostCounts))
			for gi, g := range ghostCounts {
				res.X = append(res.X, float64(g))
				pt := pts[gi]
				base[gi] = pt.b.elapsed.Millis()
				crash[gi] = pt.c.elapsed.Millis()
				s := &pt.c.summary.Counters
				res.Notes = append(res.Notes, fmt.Sprintf(
					"g=%d: victim=%d crash_at=%v bit_identical=%v reroutes=%d degraded_ops=%d failed=%d",
					g, pt.victim, pt.at, sameGrids(pt.b.interior, pt.c.interior),
					s[mpi.Reroutes], s[mpi.Degraded], s[mpi.RanksFailed]))
				survivors := "surviving node ghosts"
				if g == 1 {
					survivors = "self (degraded)"
				}
				res.Recovery = append(res.Recovery, fmt.Sprintf(
					"recovery g=%d: ghost %d crashed at %v, rebound to %s; suspects=%d locks_reclaimed=%d epoch_relocks=%d rebinds=%d retransmits=%d",
					g, pt.victim, pt.at, survivors, s[mpi.Suspects],
					s[mpi.LocksReclaimed], s[mpi.EpochRelocks], s[mpi.Rebinds], s[mpi.Retransmits]))
			}
			res.Series = []Series{{Name: "Fault-free", Y: base}, {Name: "Ghost crash", Y: crash}}
			return res
		},
	})

	register(Experiment{
		ID:     "faultapp",
		Figure: "robustness",
		Title:  "App-rank crash: epoch-replicated rollback-replay recovery",
		Run: func(o Options) *Result {
			o = o.withDefaults()
			res := &Result{
				ID: "faultapp", Title: "App-rank crash: epoch-replicated rollback-replay recovery",
				XLabel: "app_crashes", YLabel: "ms",
			}
			const users, g = 8, 2
			p := faultStencilParams()
			ppn := users/2 + g
			n := 2 * ppn
			ghostsByNode, err := core.GhostRanks(machineFor(n, ppn), n, ppn, g)
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			appRanks := userRanks(n, ghostsByNode)
			crashCounts := []int{1, 2, 3}
			type appPoint struct {
				b, c stencilResult
				plan *fault.Plan
			}
			pts := make([]appPoint, len(crashCounts))
			// Crash times derive from the fault-free run's end time, so
			// the two runs of one point stay sequential; the points
			// themselves are independent.
			o.points(len(crashCounts), func(ci int) {
				b := runStencilFault(users, g, p, o.Seed, nil)
				plan := &fault.Plan{Seed: o.Seed}
				for k := 0; k < crashCounts[ci]; k++ {
					// Victims spread across both nodes, crash instants
					// spread across the middle of the run — each lands
					// mid-epoch with real work before and after it.
					plan.AppCrashes = append(plan.AppCrashes, fault.AppCrash{
						Rank: appRanks[(k*3)%len(appRanks)],
						At:   sim.Time((0.3 + 0.15*float64(k)) * float64(b.summary.EndTime)),
					})
				}
				pts[ci] = appPoint{b: b, c: runStencilFault(users, g, p, o.Seed, plan), plan: plan}
			})
			base, crash := make([]float64, len(crashCounts)), make([]float64, len(crashCounts))
			recovered := make([]float64, len(crashCounts))
			snapshots := make([]float64, len(crashCounts))
			replayed := make([]float64, len(crashCounts))
			for ci, nc := range crashCounts {
				res.X = append(res.X, float64(nc))
				pt := pts[ci]
				base[ci] = pt.b.elapsed.Millis()
				crash[ci] = pt.c.elapsed.Millis()
				s := &pt.c.summary.Counters
				recovered[ci] = float64(s[mpi.AppRecoveries])
				snapshots[ci] = float64(s[mpi.SnapshotsTaken])
				replayed[ci] = float64(s[mpi.ReplayedOps])
				res.Notes = append(res.Notes, fmt.Sprintf(
					"crashes=%d plan={%s}: bit_identical=%v recovered=%d snapshots=%d snap_bytes=%d replayed=%d end_base=%v end_crash=%v",
					nc, pt.plan.Describe(), sameGrids(pt.b.interior, pt.c.interior),
					s[mpi.AppRecoveries], s[mpi.SnapshotsTaken], s[mpi.SnapshotBytes], s[mpi.ReplayedOps],
					pt.b.summary.EndTime, pt.c.summary.EndTime))
				if !sameGrids(pt.b.interior, pt.c.interior) || s[mpi.AppRecoveries] != int64(nc) {
					res.Failed = true
					res.Notes = append(res.Notes, fmt.Sprintf(
						"FAIL crashes=%d: recovered=%d want %d, bit_identical=%v want true",
						nc, s[mpi.AppRecoveries], nc, sameGrids(pt.b.interior, pt.c.interior)))
				}
				res.Recovery = append(res.Recovery, fmt.Sprintf(
					"app recovery crashes=%d: recovered=%d from closed-epoch snapshots (taken=%d, %d bytes shipped) + %d replayed ops; suspects=%d retransmits=%d",
					nc, s[mpi.AppRecoveries], s[mpi.SnapshotsTaken], s[mpi.SnapshotBytes],
					s[mpi.ReplayedOps], s[mpi.Suspects], s[mpi.Retransmits]))
			}
			res.Series = []Series{
				{Name: "Fault-free", Y: base},
				{Name: "App crash", Y: crash},
				{Name: "recovered", Y: recovered},
				{Name: "snapshots", Y: snapshots},
				{Name: "replayed_ops", Y: replayed},
			}
			return res
		},
	})

	register(Experiment{
		ID:     "faultsweep",
		Figure: "robustness",
		Title:  "Message drop rate vs time (retransmission recovery)",
		Run: func(o Options) *Result {
			o = o.withDefaults()
			res := &Result{
				ID: "faultsweep", Title: "Message drop rate vs time (retransmission recovery)",
				XLabel: "drop_rate", YLabel: "ms",
			}
			rates := []float64{0, 0.01, 0.02, 0.05, 0.1}
			res.X = append(res.X, rates...)
			const procs = 8
			as := []approach{origMPI(), threadAp(), casperAp(1)}
			ys := make([][]float64, len(as))
			sums := make([][]mpi.WorldSummary, len(as))
			for ai := range as {
				ys[ai] = make([]float64, len(rates))
				sums[ai] = make([]mpi.WorldSummary, len(rates))
			}
			o.grid(len(as), len(rates), func(ai, ri int) {
				ys[ai][ri], sums[ai][ri] = runFaultSweep(as[ai], procs, rates[ri], o.Seed)
			})
			for ai, a := range as {
				var retrans, dups int64
				for ri := range rates {
					retrans += sums[ai][ri].Counters[mpi.Retransmits]
					dups += sums[ai][ri].Counters[mpi.DupsSuppressed]
				}
				res.Series = append(res.Series, Series{Name: a.name, Y: ys[ai]})
				res.Notes = append(res.Notes, fmt.Sprintf(
					"%s: retransmits=%d dups_suppressed=%d across sweep",
					a.name, retrans, dups))
			}
			return res
		},
	})
}

// runFaultSweep measures the all-to-all accumulate workload for one
// approach under a uniform message-drop plan.
func runFaultSweep(a approach, procs int, rate float64, seed int64) (float64, mpi.WorldSummary) {
	var maxEl sim.Duration
	var w *mpi.World
	body := func(env mpi.Env) {
		jitter := func() sim.Duration {
			// The engine's stream is engine-side state: draw from it at the
			// clock (Now settles the rank's queued calls), where every rank
			// draws in virtual-time order.
			env.Now()
			return sim.Duration(w.Engine().Rand().Int63n(int64(sim.Microseconds(100))))
		}
		el := allToAllWorkload(mpi.KindAcc, jitter)(env)
		if el > maxEl {
			maxEl = el
		}
	}
	plan := &fault.Plan{Seed: seed, DropRate: rate}
	var cfg mpi.Config
	if a.ghosts > 0 {
		ppn := 1 + a.ghosts
		cfg = worldConfig(a.net(), procs*ppn, ppn, a.prog, a.oversub, seed)
	} else {
		cfg = worldConfig(a.net(), procs, 1, a.prog, a.oversub, seed)
	}
	cfg.Fault = plan
	var err error
	w, err = mpi.NewWorld(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	w.Launch(func(r *mpi.Rank) {
		if a.ghosts > 0 {
			p, ghost := core.Init(r, core.Config{NumGhosts: a.ghosts})
			if ghost {
				return
			}
			body(p)
			p.Finalize()
		} else {
			body(r)
		}
	})
	if err := w.Run(); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	w.Close()
	return maxEl.Millis(), w.Summary()
}

package bench

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gups"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
	"repro/internal/trace"

	"repro/internal/ga"
)

// faultchaos — the seeded chaos-sweep verifier. Every seed derives a
// complete random fault schedule (fault.ChaosPlan: ghost crashes —
// including the sequencer — stalls, message drop/delay/dup rates,
// straggler nodes, at arbitrary times including inside lock epochs and
// window construction) and runs one of four RMA workloads under it as
// an independent deterministic world. Each world is checked against the
// recovery invariants:
//
//	complete   — the run finishes: no panic, no deadlock, no watchdog.
//	identical  — the computed data is bit-identical to the fault-free
//	             baseline of the same workload (crashes only ever hit
//	             ghosts, so user-visible results must not change).
//	verified   — the workload's own self-check passes (GUPS replays its
//	             update streams against the gathered table).
//	clean      — the MPI-3 RMA correctness validator recorded nothing.
//
// A failing seed prints its schedule and a one-command replay:
// casperbench -run faultchaos -chaosseed N reruns exactly that world,
// verbosely, with a fault-event trace.

// Chaos world shape: 2 nodes, 4 user processes, 2 ghosts per node —
// the smallest world where sequencer succession (ghost 0 dies, another
// ghost must take over command ordering), same-node rebinding, and
// cross-node degradation can all occur.
const (
	chaosUsers  = 4
	chaosGhosts = 2
	chaosNodes  = 2
	chaosPPN    = chaosUsers/chaosNodes + chaosGhosts
	chaosN      = chaosNodes * chaosPPN
)

// chaosWorkloadNames indexes the rotation: seed s runs workload
// (s-1) mod 4. Sizes are fixed (never scaled), so a seed replays the
// identical world at any -scale setting.
var chaosWorkloadNames = [4]string{"stencil", "gups", "ga-matmul", "lockloop"}

// chaosSeries are the recovery counters the sweep reports per workload,
// after the "ok" count.
var chaosSeries = []mpi.Counter{
	mpi.Successions, mpi.LocksReclaimed, mpi.EpochRelocks, mpi.CmdResends,
	mpi.Rebinds, mpi.Suspects, mpi.AppRecoveries, mpi.ReplayedOps,
}

type chaosOutcome struct {
	sig        uint64 // FNV-1a over the workload's user-visible data
	selfOK     bool   // workload self-verification (GUPS table replay)
	summary    mpi.WorldSummary
	violations []string
}

// chaosSig hashes per-rank data buffers in rank order.
func chaosSig(data [][]byte) uint64 {
	h := fnv.New64a()
	for _, d := range data {
		h.Write(d)
	}
	return h.Sum64()
}

// runChaosWorld runs one workload under one fault plan (nil = the
// fault-free baseline) and captures every failure mode as an error:
// rank panics, deadlock, and watchdog all surface through the named
// return instead of killing the sweep.
func runChaosWorld(wi int, engineSeed int64, plan *fault.Plan, tr *trace.Tracer) (out chaosOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := worldConfig(netmodel.CrayXC30(), chaosN, chaosPPN, mpi.ProgressNone, false, engineSeed)
	cfg.Fault = plan
	cfg.Validate = true
	w, werr := mpi.NewWorld(cfg)
	if werr != nil {
		return out, werr
	}
	w.SetTracer(tr)
	data := make([][]byte, chaosUsers)
	out.selfOK = true
	w.Launch(func(r *mpi.Rank) {
		p, ghost := core.Init(r, core.Config{NumGhosts: chaosGhosts})
		if ghost {
			return
		}
		switch wi {
		case 0:
			res := stencil.Run(p, stencil.Params{N: 18, Iterations: 60})
			data[p.Rank()] = mpi.PutFloat64s(res.Local)
		case 1:
			_, ok := gups.RunVerified(p, gups.Params{
				WordsPerRank: 64, UpdatesPerRank: 300, Seed: 7, FlushEvery: 50})
			if p.Rank() == 0 && !ok {
				out.selfOK = false
			}
		case 2:
			data[p.Rank()] = chaosMatmul(p)
		case 3:
			data[p.Rank()] = chaosLockloop(p)
		}
		p.Finalize()
	})
	if rerr := w.Run(); rerr != nil {
		return out, rerr
	}
	w.Close()
	out.sig = chaosSig(data)
	out.summary = w.Summary()
	if v := w.Validator(); v != nil {
		out.violations = v.Violations()
	}
	return out, nil
}

// chaosMatmul is the GA workload: a 12x12 panel multiply whose result
// tile is gathered on rank 0. Ghost faults during Create (window
// construction), the multiply's lock epochs, or Destroy all land here.
func chaosMatmul(env mpi.Env) []byte {
	const n, panel = 12, 3
	fa := func(i, j int) float64 { return float64(i + 2*j + 1) }
	fb := func(i, j int) float64 { return float64(i - j) }
	a := ga.MustCreate(env, "A", n, n)
	b := ga.MustCreate(env, "B", n, n)
	c := ga.MustCreate(env, "C", n, n)
	a.FillPattern(fa)
	b.FillPattern(fb)
	c.Fill(0)
	ga.MustMultiply(a, b, c, panel, 0.25)
	var sig []byte
	if env.Rank() == 0 {
		got := make([]float64, n*n)
		c.Get(0, n, 0, n, got)
		sig = mpi.PutFloat64s(got)
	}
	c.Sync()
	c.Destroy()
	b.Destroy()
	a.Destroy()
	return sig
}

// chaosLockloop is the passive-target workload built to be mid-epoch
// when a fault lands: each rank cycles shared-lock epochs over rotating
// targets, issues commutative integer-sum accumulates, flushes, then
// dwells inside the open epoch — so a ghost crash frequently hits a
// window with locks held and forces mid-epoch reclamation rather than
// an epoch-boundary cleanup. The final table is order-independent, so
// it must come out bit-identical to the fault-free run.
func chaosLockloop(env mpi.Env) []byte {
	c := env.CommWorld()
	n := c.Size()
	const words, iters = 8, 24
	win, local := env.WinAllocate(c, 8*words, mpi.Info{core.InfoEpochsUsed: core.EpochLock})
	c.Barrier()
	for it := 0; it < iters; it++ {
		t := (c.Rank() + it) % n
		win.Lock(t, mpi.LockShared, mpi.AssertNone)
		for wd := 0; wd < words; wd++ {
			v := int64(c.Rank()*1000 + it*10 + wd)
			win.Accumulate(mpi.PutInt64(v), t, wd*8, mpi.Scalar(mpi.Int64), mpi.OpSum)
		}
		win.Flush(t)
		// Dwell with the epoch open. Most iterations dwell briefly; a
		// few hold the epoch well past the failure detector's grace
		// period and then issue a second batch, so a ghost death during
		// the dwell is detected while locks are still held — the op
		// after the dwell must re-acquire them on the substitute ghost
		// (mid-epoch lock reclamation), not coast to the epoch boundary.
		dwell := 2 * sim.Microsecond
		if it%8 == 3 {
			dwell = 120 * sim.Microsecond
		}
		env.Compute(dwell)
		if it%8 == 3 {
			win.Accumulate(mpi.PutInt64(int64(c.Rank()+it)), t, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
			win.Flush(t)
		}
		win.Unlock(t)
	}
	c.Barrier() // all epochs closed; every table word is settled
	sig := append([]byte(nil), local...)
	win.Free()
	return sig
}

// chaosFaultCandidates lists the chaos world's ghost and user ranks: whom
// a schedule may crash or stall, and whom it may crash recoverably.
func chaosFaultCandidates() (ghosts, apps []int) {
	nodeGhosts, err := core.GhostRanks(machineFor(chaosN, chaosPPN), chaosN, chaosPPN, chaosGhosts)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	for _, ng := range nodeGhosts {
		ghosts = append(ghosts, ng...)
	}
	return ghosts, userRanks(chaosN, nodeGhosts)
}

// chaosPlanFor derives seed's fault schedule for a chaos world whose
// fault-free twin ends at horizon.
func chaosPlanFor(seed int64, horizon sim.Time, ghosts, apps []int) *fault.Plan {
	return fault.ChaosPlan(seed, fault.ChaosSpec{
		Ghosts:        ghosts,
		Apps:          apps,
		Nodes:         chaosNodes,
		Horizon:       horizon,
		MaxCrashes:    3,
		MaxAppCrashes: 2,
		MaxStalls:     2,
		Rates:         true,
	})
}

// chaosCheck evaluates the four invariants for one chaos world against
// its workload baseline, returning the violated ones.
func chaosCheck(out chaosOutcome, err error, base chaosOutcome) []string {
	if err != nil {
		return []string{fmt.Sprintf("incomplete: %v", err)}
	}
	var bad []string
	if out.sig != base.sig {
		bad = append(bad, fmt.Sprintf("data mismatch: sig %016x want %016x", out.sig, base.sig))
	}
	if !out.selfOK {
		bad = append(bad, "workload self-verification failed")
	}
	if len(out.violations) > 0 {
		bad = append(bad, fmt.Sprintf("validator: %d violation(s), first: %s",
			len(out.violations), out.violations[0]))
	}
	return bad
}

func init() {
	register(Experiment{
		ID:     "faultchaos",
		Figure: "robustness",
		Title:  "Seeded chaos sweep: random fault schedules vs recovery invariants",
		Run: func(o Options) *Result {
			o = o.withDefaults()
			res := &Result{
				ID: "faultchaos", Title: "Seeded chaos sweep: random fault schedules vs recovery invariants",
				XLabel: "workload", YLabel: "count",
			}

			// Seed list: the full sweep, or a single replayed seed.
			var seeds []int64
			if o.ChaosSeed > 0 {
				seeds = []int64{o.ChaosSeed}
			} else {
				n := o.scaleInt(240, 8)
				for s := int64(1); s <= int64(n); s++ {
					seeds = append(seeds, s)
				}
			}

			// Fault-free baselines, one per workload, run serially: their
			// end times set the chaos horizon and their signatures define
			// bit-identity.
			var base [4]chaosOutcome
			for wi := range base {
				out, err := runChaosWorld(wi, o.Seed, nil, nil)
				if err != nil {
					panic(fmt.Sprintf("bench: faultchaos baseline %s: %v", chaosWorkloadNames[wi], err))
				}
				base[wi] = out
			}

			ghosts, apps := chaosFaultCandidates()

			type chaosRun struct {
				out  chaosOutcome
				err  error
				plan *fault.Plan
				tr   *trace.Tracer
				wi   int
			}
			runs := make([]chaosRun, len(seeds))
			verbose := o.ChaosSeed > 0
			o.points(len(seeds), func(i int) {
				seed := seeds[i]
				wi := int((seed - 1) % 4)
				plan := chaosPlanFor(seed, base[wi].summary.EndTime, ghosts, apps)
				var tr *trace.Tracer
				if verbose {
					tr = trace.New()
				}
				out, err := runChaosWorld(wi, o.Seed, plan, tr)
				runs[i] = chaosRun{out: out, err: err, plan: plan, tr: tr, wi: wi}
			})

			// Aggregate per workload; collect failures in seed order.
			var okCnt [4]float64
			var byWorkload [4]mpi.Counters
			var failures []string
			var agg mpi.Counters
			for i, r := range runs {
				seed := seeds[i]
				bad := chaosCheck(r.out, r.err, base[r.wi])
				byWorkload[r.wi].Add(r.out.summary.Counters)
				agg.Add(r.out.summary.Counters)
				if len(bad) == 0 {
					okCnt[r.wi]++
					continue
				}
				res.Failed = true
				for _, b := range bad {
					failures = append(failures, fmt.Sprintf(
						"FAIL seed=%d workload=%s plan={%s}: %s — replay: casperbench -run faultchaos -chaosseed %d",
						seed, chaosWorkloadNames[r.wi], r.plan.Describe(), b, seed))
				}
			}

			res.Notes = append(res.Notes, fmt.Sprintf(
				"%d seeds; seed s attacks workload (s-1) mod 4 of [stencil gups ga-matmul lockloop]", len(seeds)))
			res.Notes = append(res.Notes,
				"per seed: <=3 ghost crashes (sequencer included), <=2 recoverable app crashes, <=2 stalls, randomized drop/delay/dup/corrupt rates, stragglers")
			res.Notes = append(res.Notes, fmt.Sprintf(
				"invariants: complete, bit-identical to fault-free, self-verified, validator-clean; violations=%d",
				len(failures)))
			res.Notes = append(res.Notes, failures...)
			if verbose {
				r := runs[0]
				outcome := "ok"
				if bad := chaosCheck(r.out, r.err, base[r.wi]); len(bad) > 0 {
					outcome = bad[0]
				}
				res.Notes = append(res.Notes, fmt.Sprintf(
					"replay seed=%d workload=%s plan={%s} outcome=%s",
					o.ChaosSeed, chaosWorkloadNames[r.wi], r.plan.Describe(), outcome))
				s := &r.out.summary.Counters
				res.Notes = append(res.Notes, fmt.Sprintf(
					"replay counters: failed=%d suspects=%d false=%d successions=%d cmd_resends=%d locks_reclaimed=%d epoch_relocks=%d rebinds=%d reroutes=%d app_recovered=%d replayed=%d corrupt_dropped=%d",
					s[mpi.RanksFailed], s[mpi.Suspects], s[mpi.FalseSuspects], s[mpi.Successions], s[mpi.CmdResends],
					s[mpi.LocksReclaimed], s[mpi.EpochRelocks], s[mpi.Rebinds], s[mpi.Reroutes],
					s[mpi.AppRecoveries], s[mpi.ReplayedOps], s[mpi.CorruptDropped]))
				for _, f := range r.tr.Faults() {
					res.Notes = append(res.Notes, fmt.Sprintf(
						"trace: %-10s rank=%d peer=%d at=%v", f.Kind, f.Rank, f.Peer, f.At))
				}
			}

			res.X = []float64{1, 2, 3, 4}
			res.Series = []Series{{Name: "ok", Y: okCnt[:]}}
			for _, c := range chaosSeries {
				y := make([]float64, len(byWorkload))
				for wi := range byWorkload {
					y[wi] = float64(byWorkload[wi][c])
				}
				res.Series = append(res.Series, Series{Name: c.String(), Y: y})
			}
			res.Recovery = append(res.Recovery, fmt.Sprintf(
				"chaos recovery: %d/%d seeds clean; ghosts_failed=%d successions=%d cmd_resends=%d locks_reclaimed=%d epoch_relocks=%d rebinds=%d suspects=%d false_suspects=%d",
				len(seeds)-len(failures), len(seeds), agg[mpi.RanksFailed], agg[mpi.Successions],
				agg[mpi.CmdResends], agg[mpi.LocksReclaimed], agg[mpi.EpochRelocks], agg[mpi.Rebinds],
				agg[mpi.Suspects], agg[mpi.FalseSuspects]))
			res.Recovery = append(res.Recovery, fmt.Sprintf(
				"chaos app recovery: apps_recovered=%d snap_bytes=%d replayed_ops=%d corrupt_injected=%d corrupt_dropped=%d",
				agg[mpi.AppRecoveries], agg[mpi.SnapshotBytes], agg[mpi.ReplayedOps],
				agg[mpi.FaultCorrupts], agg[mpi.CorruptDropped]))
			return res
		},
	})
}

package main

import (
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/gups"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
	"repro/internal/tce"
	"repro/internal/trace"
)

// probeApps times the application libraries on two-node worlds, and the
// fault injector's and tracer's per-call cost.
func probeApps(pc *probeCtx) {
	// GA patch traffic: rank 0 accumulates into, then gets, a 32x32
	// double patch (8 KiB) of a tile owned by a rank on the other node.
	{
		k := pc.iters(4_000, 100)
		const dim, patch = 128, 32
		const patchKB = patch * patch * 8 / 1024.0
		gaLoop := func(name string, op func(a *ga.Array, buf []float64)) float64 {
			wr := pc.world(name, worldConfig(4, 2, netmodel.CrayXC30()), func(r *mpi.Rank) {
				a := ga.MustCreate(r, "A", dim, dim)
				a.Fill(1)
				a.Sync()
				if r.Rank() == 0 {
					buf := make([]float64, patch*patch)
					for i := 0; i < k; i++ {
						op(a, buf)
					}
				}
				a.Sync()
				a.Destroy()
			})
			return perOp(wr.run, k) / patchKB
		}
		// On a 2x2 process grid, rows [64,96) x cols [64,96) belong to
		// rank 3, on the second node.
		pc.emit("ga.acc_ns_per_kb", gaLoop("ga acc", func(a *ga.Array, buf []float64) {
			a.Acc(64, 96, 64, 96, buf, 1)
		}))
		pc.emit("ga.get_ns_per_kb", gaLoop("ga get", func(a *ga.Array, buf []float64) {
			a.Get(64, 96, 64, 96, buf)
		}))
	}

	// One CCSD-shaped TCE iteration on 2 nodes x 4 ranks.
	{
		tiles := pc.iters(16, 6)
		var tasks atomic.Int64
		wr := pc.world("tce.Run", worldConfig(8, 4, netmodel.CrayXC30()), func(r *mpi.Rank) {
			res := tce.Run(r, tce.Params{TilesPerDim: tiles, TileSize: 24, Phase: tce.PhaseCCSD})
			tasks.Add(int64(res.Tasks))
		})
		pc.emit("tce.host_us_per_task", perOp(wr.run, int(tasks.Load()))/1e3)
	}

	// Jacobi sweeps on a 130x130 grid over 4 ranks (fence + halo puts).
	{
		sweeps := pc.iters(400, 20)
		wr := pc.world("stencil.Run", worldConfig(4, 2, netmodel.CrayXC30()), func(r *mpi.Rank) {
			stencil.Run(r, stencil.Params{N: 130, Iterations: sweeps})
		})
		pc.emit("stencil.host_us_per_sweep", perOp(wr.run, sweeps)/1e3)
	}

	// Random XOR updates over 4 ranks.
	{
		updates := pc.iters(20_000, 500)
		wr := pc.world("gups.Run", worldConfig(4, 2, netmodel.CrayXC30()), func(r *mpi.Rank) {
			gups.Run(r, gups.Params{WordsPerRank: 1024, UpdatesPerRank: updates, Seed: 7, FlushEvery: 64})
		})
		pc.emit("gups.host_ns_per_update", perOp(wr.run, 4*updates))
	}

	// The injector's per-transmission verdict under a plan with every
	// wire fault enabled.
	{
		inj, err := fault.NewInjector(&fault.Plan{Seed: probeSeed, DropRate: 0.01, DelayRate: 0.01, DupRate: 0.01, CorruptRate: 0.01})
		if err != nil {
			panic(err)
		}
		k := pc.iters(5_000_000, 50_000)
		drops := 0
		d := pc.timed("fault.Injector.Transmission", func() {
			for i := 0; i < k; i++ {
				if inj.Transmission().Drop {
					drops++
				}
			}
		})
		sink += int64(drops)
		pc.emit("fault.decide_ns", perOp(d, k))
	}

	// Recording one serviced operation into a pre-reserved tracer.
	{
		k := pc.iters(2_000_000, 50_000)
		t := trace.New()
		t.Reserve(k)
		d := pc.timed("trace.Tracer.RecordService", func() {
			for i := 0; i < k; i++ {
				at := sim.Time(i)
				t.RecordService(trace.Service{Rank: 1, Origin: 0, Kind: "acc", Bytes: 8, Arrived: at, Start: at, End: at + 1})
			}
		})
		sink += int64(len(t.Services()))
		pc.emit("trace.record_ns", perOp(d, k))
	}
}

// probeBench times the experiment harness's own user paths on fig5a@0.25:
// what a second P costs the serial engine (GOMAXPROCS 2 against 1, both
// -parallel 1), what -parallel 2 gains over -parallel 1 at the GOMAXPROCS
// a 2-CPU user gets by default, and rendering a result.
func probeBench(pc *probeCtx) {
	scale := 0.25
	if pc.quick {
		scale = smokeScale
	}
	e, _ := bench.Get("fig5a")
	var res *bench.Result
	run := func(name string, procs, parallel int) float64 {
		var d float64
		withProcs(procs, func() {
			d = pc.timed(name, func() {
				res = e.Run(bench.Options{Scale: scale, Seed: goldenSeed, Parallel: parallel})
			}).Seconds()
		})
		return d
	}
	oneP := run("bench fig5a gomaxprocs=1 parallel=1", 1, 1)
	twoP := run("bench fig5a gomaxprocs=2 parallel=1", 2, 1)
	sweep := run("bench fig5a gomaxprocs=2 parallel=2", 2, 2)
	pc.emit("bench.gomaxprocs2_slowdown_x", twoP/oneP)
	pc.emit("bench.parallel_speedup_x", twoP/sweep)

	k := pc.iters(2_000, 50)
	d := pc.timed("bench.Result.CSV+Table", func() {
		for i := 0; i < k; i++ {
			sink += int64(len(res.CSV()) + len(res.Table()))
		}
	})
	pc.emit("bench.render_ms", perOp(d, k)/1e6)
}

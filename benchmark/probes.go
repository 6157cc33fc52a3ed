package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// probeCtx is what a probe gets: a place to put its numbers, a span
// recorder, and whether to run at minimum iterations (-smoke).
type probeCtx struct {
	rec   *spanRecorder
	quick bool
	out   map[string]float64
}

// iters scales a loop count down to its floor under -smoke.
func (pc *probeCtx) iters(full, floor int) int {
	if pc.quick {
		return floor
	}
	return full
}

// emit records one probe metric. Each name belongs to exactly one probe.
func (pc *probeCtx) emit(name string, v float64) {
	if _, dup := pc.out[name]; dup {
		panic("benchmark: probe metric emitted twice: " + name)
	}
	pc.out[name] = v
}

// timed runs fn under a span and returns its host wall-clock.
func (pc *probeCtx) timed(name string, fn func()) time.Duration {
	end := pc.rec.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// perOp is host nanoseconds per operation.
func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// probeSeed seeds every probe world. Probes are workload-independent and
// do not take the run's --seed: their numbers compare across runs.
const probeSeed = 1

// worldConfig is an n-rank world at ppn ranks per 24-core, 2-NUMA node
// (the paper's Cray XC30 node), on the given platform model.
func worldConfig(n, ppn int, net *netmodel.Params) mpi.Config {
	return mpi.Config{
		Machine: cluster.Machine{Nodes: (n + ppn - 1) / ppn, CoresPerNode: 24, NUMAPerNode: 2},
		N:       n,
		PPN:     ppn,
		Net:     net,
		Seed:    probeSeed,
	}
}

// worldRun is one probe world's cost: host time in World.Run (and in
// NewWorld + Launch before it) and the events Run executed.
type worldRun struct {
	setup  time.Duration
	run    time.Duration
	events int64
}

// world builds, launches and runs one world, with a span around each of
// the three public calls.
func (pc *probeCtx) world(name string, cfg mpi.Config, main func(r *mpi.Rank)) worldRun {
	end := pc.rec.begin(name)
	defer end()
	var w *mpi.World
	var wr worldRun
	wr.setup = pc.timed("mpi.NewWorld", func() {
		var err error
		if w, err = mpi.NewWorld(cfg); err != nil {
			panic(fmt.Sprintf("benchmark: %s: %v", name, err))
		}
	})
	wr.setup += pc.timed("mpi.World.Launch", func() { w.Launch(main) })
	ev0 := mpi.TotalEventsExecuted()
	wr.run = pc.timed("mpi.World.Run", func() {
		if err := w.Run(); err != nil {
			panic(fmt.Sprintf("benchmark: %s: %v", name, err))
		}
	})
	wr.events = mpi.TotalEventsExecuted() - ev0
	return wr
}

// withProcs runs fn at GOMAXPROCS n (capped by the host's CPUs).
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(procsOnHost(n))
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// runProbes runs every probe once and returns probe metric -> value.
// Probes run on one P — they time a layer's code, not where the Go
// scheduler puts its goroutines; what a second P costs is a probe of its
// own (bench.gomaxprocs2_slowdown_x) — and the few that measure parallel
// execution raise it themselves.
func runProbes(rec *spanRecorder, quick bool) map[string]float64 {
	pc := &probeCtx{rec: rec, quick: quick, out: map[string]float64{}}
	end := rec.begin("probes")
	defer end()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probeSim(pc)
	probeNetmodel(pc)
	probeMPI(pc)
	probeCore(pc)
	probeApps(pc)
	probeBench(pc)
	return pc.out
}

package main

import (
	"runtime"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// probeWinBytes is the window every RMA probe program exposes: room for
// the largest payload (a 64x64 double tile) and the vector extent.
const probeWinBytes = 64 << 10

// opLoop is the rank program shared by the mpi and core probes: rank 0
// opens a lockall epoch and issues n operations at target, flushing
// every 64; every other rank waits in the closing barrier, which is
// where a target without asynchronous progress services software AMs.
func opLoop(n, target int, issue func(win mpi.Window, target int)) func(env mpi.Env) {
	return func(env mpi.Env) {
		c := env.CommWorld()
		win, _ := env.WinAllocate(c, probeWinBytes, nil)
		c.Barrier()
		if env.Rank() == 0 {
			win.LockAll(mpi.AssertNone)
			for i := 0; i < n; i++ {
				issue(win, target)
				if i%64 == 63 {
					win.Flush(target)
				}
			}
			win.UnlockAll()
		}
		c.Barrier()
		win.Free()
	}
}

// The operation kinds the probes issue.
var (
	oneDouble = mpi.PutFloat64s([]float64{1})
	getBuf    = make([]byte, 8)

	issueAcc = func(win mpi.Window, t int) {
		win.Accumulate(oneDouble, t, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
	}
	issuePut = func(win mpi.Window, t int) { win.Put(oneDouble, t, 0, mpi.Scalar(mpi.Float64)) }
	issueGet = func(win mpi.Window, t int) { win.Get(getBuf, t, 0, mpi.Scalar(mpi.Float64)) }
)

// plainOps runs opLoop on a plain two-rank, two-node world and returns
// host ns per operation and the run.
func plainOps(pc *probeCtx, name string, cfg mpi.Config, n int, issue func(mpi.Window, int)) (float64, worldRun) {
	body := opLoop(n, 1, issue)
	wr := pc.world(name, cfg, func(r *mpi.Rank) { body(r) })
	return perOp(wr.run, n), wr
}

// eventsPerOp is the exact marginal event count of one operation: the
// difference between two runs of different length, so world set-up and
// teardown events cancel.
func eventsPerOp(long, short worldRun, nLong, nShort int) float64 {
	return float64(long.events-short.events) / float64(nLong-nShort)
}

// probeMPI times the plain MPI runtime: one op kind per world, on two
// ranks on two nodes unless stated.
func probeMPI(pc *probeCtx) {
	xc30 := netmodel.CrayXC30
	two := func() mpi.Config { return worldConfig(2, 1, xc30()) }
	n := pc.iters(40_000, 640)

	ns, long := plainOps(pc, "mpi acc", two(), n, issueAcc)
	pc.emit("mpi.acc_ns_per_op", ns)
	_, short := plainOps(pc, "mpi acc (short)", two(), n/10, issueAcc)
	pc.emit("mpi.events_per_acc", eventsPerOp(long, short, n, n/10))

	// Contiguous PUT on the DMAPP model completes in NIC hardware: no
	// target-side AM at all.
	ns, _ = plainOps(pc, "mpi put (hardware)", worldConfig(2, 1, netmodel.CrayXC30DMAPP()), n, issuePut)
	pc.emit("mpi.put_hw_ns_per_op", ns)

	ns, _ = plainOps(pc, "mpi get", two(), n, issueGet)
	pc.emit("mpi.get_ns_per_op", ns)

	// 2 KiB strided accumulate: 64 blocks of 4 doubles, stride 8.
	vec := mpi.Vector(mpi.Float64, 64, 4, 8)
	vecBuf := make([]byte, vec.Size())
	ns, _ = plainOps(pc, "mpi acc vector", two(), n/8, func(win mpi.Window, t int) {
		win.Accumulate(vecBuf, t, 0, vec, mpi.OpSum)
	})
	pc.emit("mpi.acc_vector_ns_per_kb", ns/(float64(vec.Size())/1024))

	// 32 KiB contiguous accumulate: a 64x64 double tile, TCE's largest.
	tile := mpi.TypeOf(mpi.Float64, 64*64)
	tileBuf := make([]byte, tile.Size())
	ns, _ = plainOps(pc, "mpi acc large", two(), n/16, func(win mpi.Window, t int) {
		win.Accumulate(tileBuf, t, 0, tile, mpi.OpSum)
	})
	pc.emit("mpi.acc_large_ns_per_kb", ns/(float64(tile.Size())/1024))

	// Point-to-point ping-pong.
	wr := pc.world("mpi sendrecv", two(), func(r *mpi.Rank) {
		c := r.CommWorld()
		peer := 1 - r.Rank()
		for i := 0; i < n; i++ {
			if r.Rank() == 0 {
				c.Send(peer, 0, oneDouble)
				c.Recv(peer, 0)
			} else {
				c.Recv(peer, 0)
				c.Send(peer, 0, oneDouble)
			}
		}
	})
	pc.emit("mpi.sendrecv_ns_per_msg", perOp(wr.run, 2*n))

	// Collectives and active-target epochs on two full nodes.
	const wide = 48
	k := pc.iters(2_000, 50)
	wr = pc.world("mpi barrier", worldConfig(wide, 24, xc30()), func(r *mpi.Rank) {
		c := r.CommWorld()
		for i := 0; i < k; i++ {
			c.Barrier()
		}
	})
	pc.emit("mpi.barrier_ns_per_rank", perOp(wr.run, k*wide))

	wr = pc.world("mpi fence", worldConfig(wide, 24, xc30()), func(r *mpi.Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		next := (r.Rank() + 1) % wide
		win.Fence(mpi.ModeNoPrecede)
		for i := 0; i < k; i++ {
			win.Put(oneDouble, next, 0, mpi.Scalar(mpi.Float64))
			win.Fence(mpi.AssertNone)
		}
		win.Free()
	})
	pc.emit("mpi.fence_ns_per_rank", perOp(wr.run, k*wide))

	epochs := pc.iters(20_000, 300)
	wr = pc.world("mpi pscw", two(), func(r *mpi.Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		for i := 0; i < epochs; i++ {
			if r.Rank() == 0 {
				win.Start([]int{1}, mpi.AssertNone)
				win.Put(oneDouble, 1, 0, mpi.Scalar(mpi.Float64))
				win.Complete()
			} else {
				win.Post([]int{0}, mpi.AssertNone)
				win.Wait()
			}
		}
		win.Free()
	})
	pc.emit("mpi.pscw_ns_per_epoch", perOp(wr.run, epochs))

	wr = pc.world("mpi lock", two(), func(r *mpi.Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			for i := 0; i < epochs; i++ {
				win.Lock(1, mpi.LockShared, mpi.AssertNone)
				win.Put(oneDouble, 1, 0, mpi.Scalar(mpi.Float64))
				win.Unlock(1)
			}
		}
		c.Barrier()
		win.Free()
	})
	pc.emit("mpi.lock_ns_per_epoch", perOp(wr.run, epochs))

	// A 2048-rank world that does nothing: construction, goroutine spawn,
	// teardown, and what a rank costs in live memory before it runs.
	{
		const ranks = 2048
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		end := pc.rec.begin("mpi world 2048")
		var w *mpi.World
		setup := pc.timed("mpi.NewWorld", func() {
			var err error
			if w, err = mpi.NewWorld(worldConfig(ranks, 16, xc30())); err != nil {
				panic(err)
			}
		})
		setup += pc.timed("mpi.World.Launch", func() { w.Launch(func(r *mpi.Rank) {}) })
		runtime.GC()
		runtime.ReadMemStats(&after)
		setup += pc.timed("mpi.World.Run", func() {
			if err := w.Run(); err != nil {
				panic(err)
			}
		})
		end()
		pc.emit("mpi.world_setup_us_per_rank", perOp(setup, ranks)/1e3)
		live := func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc + m.StackInuse) }
		pc.emit("mpi.world_bytes_per_rank", (live(&after)-live(&before))/ranks)
		runtime.KeepAlive(w)
	}

	// The accumulate loop again with each optional layer switched on: a
	// zero-rate fault plan (reliable transport), flow control, validator.
	reliable := two()
	reliable.Fault = &fault.Plan{Seed: probeSeed}
	ns, _ = plainOps(pc, "mpi acc reliable", reliable, n/4, issueAcc)
	pc.emit("mpi.reliable_acc_ns_per_op", ns)

	flow := two()
	flow.Flow = &mpi.FlowConfig{}
	ns, _ = plainOps(pc, "mpi acc flow", flow, n/4, issueAcc)
	pc.emit("mpi.flow_acc_ns_per_op", ns)

	validate := two()
	validate.Validate = true
	ns, _ = plainOps(pc, "mpi acc validate", validate, n/4, issueAcc)
	pc.emit("mpi.validate_acc_ns_per_op", ns)
}

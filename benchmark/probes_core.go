package main

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// casperWorld runs body on the user processes of a Casper deployment:
// users user processes and ghosts ghost processes on each of nodes nodes.
func casperWorld(pc *probeCtx, name string, nodes, users, ghosts int, ccfg core.Config, body func(env mpi.Env)) worldRun {
	ppn := users + ghosts
	ccfg.NumGhosts = ghosts
	return pc.world(name, worldConfig(nodes*ppn, ppn, netmodel.CrayXC30()), func(r *mpi.Rank) {
		p, ghost := core.Init(r, ccfg)
		if ghost {
			return
		}
		body(p)
		p.Finalize()
	})
}

// probeCore times Casper's redirection: the mpi probes' rank programs
// again, through core.Init with one ghost per node (user 0 and user 1
// sit on different nodes).
func probeCore(pc *probeCtx) {
	n := pc.iters(40_000, 640)
	ops := func(name string, n, target int, issue func(mpi.Window, int)) (float64, worldRun) {
		wr := casperWorld(pc, name, 2, 1, 1, core.Config{}, opLoop(n, target, issue))
		return perOp(wr.run, n), wr
	}

	acc, long := ops("core acc", n, 1, issueAcc)
	pc.emit("core.acc_ns_per_op", acc)
	_, short := ops("core acc (short)", n/10, 1, issueAcc)
	pc.emit("core.events_per_acc", eventsPerOp(long, short, n, n/10))
	// Host cost of redirection relative to the plain path measured by
	// probeMPI just before.
	pc.emit("core.redirect_overhead_x", acc/pc.out["mpi.acc_ns_per_op"])

	ns, _ := ops("core put", n, 1, issuePut)
	pc.emit("core.put_ns_per_op", ns)

	// PUT to oneself: redirected through the ghost like any other target
	// (SelfOpLocal off, the default).
	ns, _ = ops("core self put", n, 0, issuePut)
	pc.emit("core.self_ns_per_op", ns)

	// Deployment and window construction on 8 nodes x (16 users + 2
	// ghosts): a world that only initialises, against one that also
	// allocates and frees two windows.
	{
		const nodes, users, ghosts = 8, 16, 2
		const ranks = nodes * (users + ghosts)
		windows := func(k int) func(env mpi.Env) {
			return func(env mpi.Env) {
				c := env.CommWorld()
				for i := 0; i < k; i++ {
					win, _ := env.WinAllocate(c, 4096, nil)
					win.Free()
				}
			}
		}
		initOnly := casperWorld(pc, "core init", nodes, users, ghosts, core.Config{}, windows(0))
		pc.emit("core.init_us_per_rank", perOp(initOnly.setup+initOnly.run, ranks)/1e3)
		withWins := casperWorld(pc, "core win alloc", nodes, users, ghosts, core.Config{}, windows(2))
		pc.emit("core.win_alloc_us_per_rank", perOp(withWins.run-initOnly.run, 2*ranks)/1e3)
	}

	// Op-counting dynamic binding with two ghosts to choose from: one op
	// and a flush per target opens the static-binding-free interval, then
	// PUT beside ACC at one hot target (the fig7b pattern). Per op, both
	// kinds counted.
	{
		k := pc.iters(20_000, 320)
		wr := casperWorld(pc, "core dynamic binding", 2, 2, 2, core.Config{LoadBalance: core.LBOpCounting},
			func(env mpi.Env) {
				c := env.CommWorld()
				win, _ := env.WinAllocate(c, probeWinBytes, nil)
				c.Barrier()
				if env.Rank() == 0 {
					hot := env.Size() - 1
					win.LockAll(mpi.AssertNone)
					for t := 1; t < env.Size(); t++ {
						issuePut(win, t)
						win.Flush(t)
					}
					for i := 0; i < k; i++ {
						issueAcc(win, hot)
						issuePut(win, hot)
						if i%64 == 63 {
							win.Flush(hot)
						}
					}
					win.UnlockAll()
				}
				c.Barrier()
				win.Free()
			})
		pc.emit("core.dynbind_acc_ns_per_op", perOp(wr.run, 2*k))
	}
}

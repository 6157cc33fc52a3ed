package main

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// sink keeps probe loops whose results are otherwise unused from being
// optimised away.
var sink int64

// holdEvent is one resident event of the hold model: when it fires it
// schedules itself again at a randomised future offset, so the queue
// keeps a steady working set.
type holdEvent struct {
	e    *sim.Engine
	left *int
	offs []sim.Duration
	i    int
}

func (h *holdEvent) Step() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.i++
	h.e.AfterRun(h.offs[h.i&(len(h.offs)-1)], h)
}

// holdModel churns n events through an engine holding a working set of w
// pending events and returns host ns per executed event. The offset mix
// follows the cost models: mostly sub-microsecond AM service steps, a
// tail of multi-microsecond transfers.
func holdModel(pc *probeCtx, name string, w, n int) float64 {
	rng := rand.New(rand.NewSource(probeSeed))
	offs := make([]sim.Duration, 1024)
	for i := range offs {
		switch rng.Intn(10) {
		case 0:
			offs[i] = sim.Duration(rng.Int63n(int64(40 * sim.Microsecond)))
		default:
			offs[i] = sim.Duration(1 + rng.Int63n(int64(sim.Microsecond)))
		}
	}
	e := sim.New(probeSeed)
	left := n
	for i := 0; i < w; i++ {
		e.AfterRun(offs[i&1023], &holdEvent{e: e, left: &left, offs: offs, i: i})
	}
	d := pc.timed(name, e.MustRun)
	return perOp(d, int(e.EventsExecuted()))
}

// completer completes the completion it currently points at.
type completer struct{ c *sim.Completion }

func (w *completer) Step() { w.c.Complete() }

// chainJob resubmits itself to a serial server until the chain is spent.
type chainJob struct {
	s    *sim.Server
	e    *sim.Engine
	left *int
}

func (j *chainJob) Step() {
	if *j.left <= 0 {
		return
	}
	*j.left--
	j.s.SubmitRun(j.e.Now(), 100*sim.Nanosecond, j)
}

// pinger bounces between two shard engines, one lookahead window ahead
// each time.
type pinger struct {
	g       *sim.ShardGroup
	engines []*sim.Engine
	at      int // engine this pinger fires on
	left    int
	peer    *pinger
}

func (p *pinger) Step() {
	if p.left <= 0 {
		return
	}
	p.left--
	src, dst := p.engines[p.at], p.engines[1-p.at]
	p.g.InjectRun(src, dst, src.Now().Add(p.g.Window()), p.peer)
}

// probeSim times a bare sim.Engine and sim.ShardGroup.
func probeSim(pc *probeCtx) {
	n := pc.iters(2_000_000, 20_000)
	pc.emit("sim.hold_ns_per_event.w1k", holdModel(pc, "sim hold w=1k", 1<<10, n))
	pc.emit("sim.hold_ns_per_event.w32k", holdModel(pc, "sim hold w=32k", 1<<15, n))

	// Two processes alternating through Advance: one park and one resume
	// per call, the switch under every simulated MPI call.
	{
		e := sim.New(probeSeed)
		k := pc.iters(300_000, 5_000)
		body := func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				p.Advance(sim.Microsecond)
			}
		}
		e.Spawn("a", body)
		e.Spawn("b", body)
		pc.emit("sim.proc_switch_ns", perOp(pc.timed("sim proc switch", e.MustRun), 2*k))
	}

	// A lone process: every Advance completes inline, no park, no queue.
	{
		e := sim.New(probeSeed)
		k := pc.iters(5_000_000, 50_000)
		e.Spawn("solo", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				p.Advance(sim.Microsecond)
			}
		})
		pc.emit("sim.inline_advance_ns", perOp(pc.timed("sim inline advance", e.MustRun), k))
	}

	// Await a completion that a timer event completes: the wake-up under
	// every blocking RMA call.
	{
		e := sim.New(probeSeed)
		k := pc.iters(300_000, 5_000)
		cs := make([]sim.Completion, k)
		wake := &completer{}
		e.Spawn("waiter", func(p *sim.Proc) {
			for i := range cs {
				wake.c = &cs[i]
				e.AfterRun(sim.Microsecond, wake)
				cs[i].Await(p, "probe")
			}
		})
		pc.emit("sim.completion_wake_ns", perOp(pc.timed("sim completion wake", e.MustRun), k))
	}

	// A serial server with a standing backlog of 64 self-resubmitting
	// jobs: the AM service queue of a saturated target.
	{
		e := sim.New(probeSeed)
		s := sim.NewServer(e)
		left := pc.iters(2_000_000, 20_000)
		total := left
		e.At(0, func() {
			for i := 0; i < 64; i++ {
				s.SubmitRun(e.Now(), 100*sim.Nanosecond, &chainJob{s: s, e: e, left: &left})
			}
		})
		pc.emit("sim.server_ns_per_job", perOp(pc.timed("sim server chain", e.MustRun), total+64))
	}

	// 4096 processes spawned and run to their first (and only) advance.
	{
		e := sim.New(probeSeed)
		const procs = 4096
		d := pc.timed("sim spawn 4096", func() {
			for i := 0; i < procs; i++ {
				e.Spawn("p", func(p *sim.Proc) { p.Advance(sim.Microsecond) })
			}
			e.MustRun()
		})
		pc.emit("sim.spawn_us_per_proc", perOp(d, procs)/1e3)
	}

	// Two shards whose processes advance in window-sized steps, so nearly
	// every window is a barrier round with almost nothing in it. Two Ps:
	// the barrier is between two worker threads.
	withProcs(2, func() {
		engines := []*sim.Engine{sim.New(probeSeed), sim.New(probeSeed + 1)}
		g := sim.NewShardGroup(engines, sim.Microsecond, 2)
		k := pc.iters(200_000, 5_000)
		for _, e := range engines {
			e.Spawn("stepper", func(p *sim.Proc) {
				for i := 0; i < k; i++ {
					p.Advance(sim.Microsecond)
				}
			})
		}
		d := pc.timed("sim shard rounds", func() {
			if err := g.Run(); err != nil {
				panic(err)
			}
		})
		pc.emit("sim.shard_round_ns", perOp(d, int(g.Rounds())))
	})

	// 64 runners ping-ponging across two shards through the mailboxes.
	withProcs(2, func() {
		engines := []*sim.Engine{sim.New(probeSeed), sim.New(probeSeed + 1)}
		g := sim.NewShardGroup(engines, sim.Microsecond, 2)
		const chains = 64
		hops := pc.iters(20_000, 500)
		for c := 0; c < chains; c++ {
			a := &pinger{g: g, engines: engines, at: 0, left: hops / 2}
			b := &pinger{g: g, engines: engines, at: 1, left: hops / 2, peer: a}
			a.peer = b
			engines[0].AtRun(0, a)
		}
		d := pc.timed("sim shard inject", func() {
			if err := g.Run(); err != nil {
				panic(err)
			}
		})
		pc.emit("sim.shard_inject_ns", perOp(d, chains*hops))
	})
}

// probeNetmodel times the cost-model lookups on the message path.
func probeNetmodel(pc *probeCtx) {
	n := pc.iters(20_000_000, 100_000)
	params := netmodel.CrayXC30()
	memo := netmodel.NewMemo(params)
	sizes := [8]int{8, 64, 512, 4096, 8, 8, 64, 32768}
	locs := [3]netmodel.Locality{
		netmodel.LocalityOf(false, false), netmodel.LocalityOf(true, false), netmodel.LocalityOf(true, true),
	}

	var acc sim.Duration
	d := pc.timed("netmodel.Memo.TransferLoc", func() {
		for i := 0; i < n; i++ {
			acc += memo.TransferLoc(locs[i%3], sizes[i&7])
		}
	})
	pc.emit("netmodel.transfer_memo_ns", perOp(d, n))

	d = pc.timed("netmodel.Params.Transfer", func() {
		for i := 0; i < n; i++ {
			acc += params.Transfer(i%3 != 0, i%3 == 2, sizes[i&7])
		}
	})
	pc.emit("netmodel.transfer_raw_ns", perOp(d, n))

	d = pc.timed("netmodel.Memo.AMCost", func() {
		for i := 0; i < n; i++ {
			acc += memo.AMCost(sizes[i&7], i&8 == 0)
		}
	})
	pc.emit("netmodel.amcost_ns", perOp(d, n))

	place := cluster.MustPlace(cluster.Machine{Nodes: 16, CoresPerNode: 24, NUMAPerNode: 2}, 384, 24)
	same := 0
	d = pc.timed("cluster.Placement.SameNUMA", func() {
		for i := 0; i < n; i++ {
			if place.SameNUMA(i%384, (i*7)%384) {
				same++
			}
		}
	})
	pc.emit("cluster.placement_ns", perOp(d, n))
	sink += int64(acc) + int64(same)
}

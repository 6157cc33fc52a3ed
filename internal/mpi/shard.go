package mpi

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// shardState is the parallel-execution state of a sharded world:
// min(cfg.Shards, nodes) simulation engines, each owning a contiguous
// block of nodes (ghosts co-located with the app ranks they serve),
// run under conservative safe windows by sim.ShardGroup. One engine
// per worker keeps the per-barrier cost O(shards) rather than O(nodes)
// — messages between nodes on the same engine are ordinary heap events
// with no lookahead constraint, so only genuinely cross-worker traffic
// pays for mailboxes and window limits. The window width is half the
// network model's lookahead — halving is what makes two-hop
// interactions (a member contribution relayed to an owner shard, then
// a wake relayed back) legal, since every cross-node cost is at least
// one full lookahead and therefore at least two windows.
type shardState struct {
	group   *sim.ShardGroup
	engines []*sim.Engine
	pools   []bufPool
	memos   []*netmodel.Memo
	shardOf []int // world rank -> shard (engine) index
	window  sim.Duration

	// mu guards the world-global registries mutated from arbitrary shard
	// engines while windows run in parallel: comm/window/segment sequence
	// counters and lists, groupComms, SharedState, and window handle
	// lists. Registry IDs may therefore be allocated in wall-clock order
	// across shards — they are process-local handles that never reach
	// experiment output, so observable behaviour stays deterministic.
	mu sync.Mutex
}

// shardEligible reports whether cfg selects — and the world supports —
// sharded execution. Fault plans, flow control, and the validator all
// thread world-global mutable state through every message, and a
// single-node world has no cross-node latency to hide behind; those
// worlds silently fall back to the serial engine, which is always
// correct (and for a single node, just as fast).
func shardEligible(cfg Config, place *cluster.Placement) bool {
	if cfg.Shards <= 0 {
		return false
	}
	if cfg.Fault != nil || cfg.Flow != nil || cfg.Validate {
		return false
	}
	if place.NodesUsed() < 2 {
		return false
	}
	return cfg.Net.Lookahead()/2 > 0
}

// newShardState builds the shard engines, pools, and memo caches and
// wires them into a ShardGroup with one worker per engine. Nodes are
// distributed over the engines in contiguous blocks, so placements with
// neighbour locality (stencils) keep most traffic engine-local.
func newShardState(w *World) *shardState {
	n := w.place.NodesUsed()
	ne := w.cfg.Shards
	if ne > n {
		ne = n
	}
	s := &shardState{
		engines: make([]*sim.Engine, ne),
		pools:   make([]bufPool, ne),
		memos:   make([]*netmodel.Memo, ne),
		shardOf: make([]int, w.cfg.N),
		window:  w.cfg.Net.Lookahead() / 2,
	}
	for i := range s.engines {
		s.engines[i] = sim.New(w.cfg.Seed + int64(i))
		s.memos[i] = netmodel.NewMemo(w.cfg.Net)
	}
	for r := range s.shardOf {
		s.shardOf[r] = w.place.Node(r) * ne / n
	}
	s.group = sim.NewShardGroup(s.engines, s.window, ne)
	return s
}

// --- Cross-shard collectives ----------------------------------------
//
// A communicator spanning shards cannot use the serial rendezvous (a
// shared collOp mutated by every member) — members run on different
// engines in the same window. Instead the comm's owner shard (the
// engine of comm rank 0) mediates: each member ships a contribution
// through the mailbox system exactly one window into its future (the
// earliest legal injection), the owner gathers them in deterministic
// (time, seq) order, and when the last arrives it runs the reduce and
// relays the result back at the collective's completion time.
//
// Timing is identical to the serial path: a contribution sent at member
// time t arrives at the owner at t+window, so the owner's last-arrival
// clock is t_last+window and the completion time
//
//	T = lastAt - window + cost = t_last + cost
//
// matches the serial engine's After(cost) from the last arriver. The
// relay back is legal because every collective's cost spans at least
// one full cross-node latency (rounds >= 1), i.e. at least two windows:
// T - lastAt = cost - window >= window.

// contribution is one member's arrival at a cross-shard collective.
type contribution struct {
	gen     int
	name    string
	member  int // comm rank
	val     interface{}
	cost    sim.Duration
	reduce  func(vals []interface{}) interface{}
	wake    func(result interface{})
	wakeEng *sim.Engine
}

type memberWake struct {
	fn  func(result interface{})
	eng *sim.Engine
}

// shardColl is the owner-side rendezvous state of one cross-shard
// collective generation.
type shardColl struct {
	name    string
	arrived int
	vals    []interface{}
	lastAt  sim.Time
	cost    sim.Duration
	reduce  func(vals []interface{}) interface{}
	wakes   []memberWake
}

// collectiveSharded is the member side: contribute to the owner shard
// and park until the relayed completion. Caller holds mpiEnter.
func (c *Comm) collectiveSharded(name string, val interface{},
	cost sim.Duration, reduce func(vals []interface{}) interface{}) interface{} {
	r := c.r
	g := c.g
	gen := g.gen[c.me]
	g.gen[c.me]++
	var done sim.Completion
	var result interface{}
	ct := &contribution{
		gen: gen, name: name, member: c.me, val: val,
		cost: cost, reduce: reduce,
		wake: func(res interface{}) {
			result = res
			done.Complete()
		},
		wakeEng: r.eng,
	}
	s := g.w.sharded
	at := r.eng.Now().Add(s.window)
	s.group.Inject(r.eng, g.eng, at, func() { g.shardArrive(ct) })
	done.Await(r.proc, name)
	return result
}

// shardArrive runs at the owner shard's engine, once per contribution,
// in deterministic (time, banded-seq) order. Like the serial
// rendezvous, the last processed contribution's cost and reduce win.
func (g *commGlobal) shardArrive(ct *contribution) {
	s := g.w.sharded
	sc, ok := g.scolls[ct.gen]
	if !ok {
		sc = &shardColl{name: ct.name, vals: make([]interface{}, len(g.ranks))}
		g.scolls[ct.gen] = sc
	}
	if sc.name != ct.name {
		panic(fmt.Sprintf("mpi: collective mismatch on comm%d: rank %d called %s while others called %s",
			g.id, ct.member, ct.name, sc.name))
	}
	sc.vals[ct.member] = ct.val
	sc.arrived++
	sc.cost = ct.cost
	sc.reduce = ct.reduce
	sc.lastAt = g.eng.Now()
	sc.wakes = append(sc.wakes, memberWake{fn: ct.wake, eng: ct.wakeEng})
	if sc.arrived < len(g.ranks) {
		return
	}
	delete(g.scolls, ct.gen)
	var res interface{}
	if sc.reduce != nil {
		res = sc.reduce(sc.vals)
	}
	at := sc.lastAt.Add(sc.cost - s.window)
	for _, mw := range sc.wakes {
		fn := mw.fn
		if mw.eng == g.eng {
			g.eng.At(at, func() { fn(res) })
		} else {
			s.group.Inject(g.eng, mw.eng, at, func() { fn(res) })
		}
	}
}

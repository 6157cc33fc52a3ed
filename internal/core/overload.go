package core

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Overload-adaptive rebinding. The paper's static binding (III-B-1)
// pins every user target to one ghost, so a skewed workload can funnel
// a node's whole AM load through a single ghost while its siblings
// idle. The rebalancer closes that gap: a periodic sweep reads every
// ghost's queue depth and service-time EWMA (mpi.Rank.BacklogEstimate)
// and migrates target bindings from the hottest ghost to the coldest —
// the dynamic load balancing the paper defers as future work, done
// under the same correctness rules as static binding.
//
// Correctness hinges on the single-server-per-target invariant that
// static binding provides: all accumulates addressing a target are
// applied by ONE rank, which serializes them and keeps them element-
// atomic (III-B). A rebinding therefore commits per TARGET, at an
// instant when that target has no operation in flight: the new server
// is staged as pending and adopted only when the target's in-flight
// count returns to zero (checked by the op observer at each op's
// terminal event). Every service interval under the old server has
// fully ended before any operation routes to the new one, so no two
// servers ever apply accumulates to the same bytes concurrently —
// and MPI-3's per-(origin, target) accumulate ordering is trivially
// preserved, since the switch is a full serialization point. In-flight
// counts return to zero at every flush generation (an epoch boundary)
// and usually far more often, so pending moves commit quickly.
// Migrations never start inside an open lock epoch — the epoch's ghost
// locks pin the binding until Unlock. When every ghost of a node is
// saturated the node degrades to original-mode target-side progress
// (operations go to the target user process itself, via the same
// per-target commit) until the ghosts drain.
//
// All sweep machinery runs as background events in engine context:
// it can never extend a run, and with Config.Overload nil none of it
// exists — the seed code paths are untouched.

// OverloadStats counts rebalancer decisions across a world.
type OverloadStats struct {
	Migrations   int64 // bindings moved to a colder ghost
	DeferredBusy int64 // migrations staged pending: target had in-flight ops
	DeferredLock int64 // migrations deferred: target inside an open lock epoch
	Saturations  int64 // node degradations to target-side progress
	Restores     int64 // degraded nodes restored to ghost progress
}

// rebalancer is the world-global sweep driver; one per mpi.World,
// created when the first overload-enabled window registers.
type rebalancer struct {
	p     *Process // any process; used for world/engine/placement access
	cfg   OverloadConfig
	wins  []*winShared // registration order
	stats OverloadStats
	armed bool

	// Load sampling state: per ghost world rank, the depth integral at
	// the previous sweep, and this sweep's memoized average backlog (a
	// ghost may serve several windows; its delta is taken once).
	lastInteg map[int]sim.Duration
	avg       map[int]sim.Duration
}

const rebalancerKey = "casper.overload.rebalancer"

// winShared is the per-window overload state shared by every rank's
// casperWin handle of the same window (keyed by creation command and
// index, like the ghost free protocol).
type winShared struct {
	reb *rebalancer
	cw  *casperWin // representative handle; layouts are identical

	server    map[int]int         // user target -> committed server (internal rank; selfInternal = degraded)
	pending   map[int]int         // user target -> staged next server, -1 = revert to static binding
	handover  map[int]*sim.Signal // user target -> origins parked awaiting a pending commit
	inflight  []int               // per user target: routed ops not yet terminal
	lockHolds []int               // per user target: open lock epochs (any origin)
	degraded  map[int]bool
	degHold   map[int]int  // consecutive drained sweeps of a degraded node (restore hysteresis)
	routed    []int64      // per user target: cumulative routed op count (migration decisions)
	everDeg   map[int]bool // nodes degraded at any point (flush coverage)

	nodes       []int         // sorted distinct nodes of the layout
	nodeTargets map[int][]int // node -> user targets, ascending
	freed       bool
}

// attachOverload wires a freshly created casperWin into the overload
// layer: the shared per-window state, the op observer on the internal
// windows, and the world rebalancer (armed on first registration).
// Runs during WinAllocate, in proc context.
func (p *Process) attachOverload(cw *casperWin) *winShared {
	world := p.r.World()
	if world.Sharded() {
		// The sweep driver mutates bindings across the whole node set
		// from one background event stream — world-global state the
		// shard engines cannot share.
		panic("casper: overload rebalancing is not supported under sharded execution (set Config.Shards = 0)")
	}
	reb := world.SharedState(rebalancerKey, func() interface{} {
		return &rebalancer{
			p:         p,
			cfg:       p.d.cfg.Overload.withDefaults(),
			lastInteg: map[int]sim.Duration{},
		}
	}).(*rebalancer)

	key := "casper.overload.win/" + cw.meta.key + "#" + fmt.Sprint(cw.meta.idx)
	sh := world.SharedState(key, func() interface{} {
		nt := cw.comm.Size()
		s := &winShared{
			reb:         reb,
			cw:          cw,
			server:      map[int]int{},
			pending:     map[int]int{},
			handover:    map[int]*sim.Signal{},
			inflight:    make([]int, nt),
			lockHolds:   make([]int, nt),
			degraded:    map[int]bool{},
			degHold:     map[int]int{},
			routed:      make([]int64, nt),
			everDeg:     map[int]bool{},
			nodeTargets: map[int][]int{},
		}
		for t := range cw.layout {
			node := cw.layout[t].node
			if _, ok := s.nodeTargets[node]; !ok {
				s.nodes = append(s.nodes, node)
			}
			s.nodeTargets[node] = append(s.nodeTargets[node], t)
		}
		sort.Ints(s.nodes)
		reb.wins = append(reb.wins, s)
		// The observer fires in engine context at each op's terminal
		// state; a pending server change commits at the first instant
		// the target's in-flight count returns to zero.
		obs := func(origin, target, disp int) {
			if t := s.userTargetFor(target, disp); t >= 0 {
				s.inflight[t]--
				if s.inflight[t] == 0 {
					if g, ok := s.pending[t]; ok {
						s.commit(t, g)
					}
				}
			}
		}
		for _, w := range cw.lockWins {
			w.SetOpObserver(obs)
		}
		if cw.active != nil {
			cw.active.SetOpObserver(obs)
		}
		return s
	}).(*winShared)

	if !reb.armed {
		reb.armed = true
		world.Engine().AfterBG(reb.cfg.Interval, reb.tick)
	}
	return sh
}

// userTargetFor maps an op's final internal-comm target rank and
// absolute segment displacement back to the user target it addressed
// (the inverse of route's translation; same scan as rerouteGhost).
func (s *winShared) userTargetFor(internalRank, disp int) int {
	cw := s.cw
	node := cw.p.d.place.Node(cw.internal.WorldRank(internalRank))
	fallback := -1
	for _, t := range s.nodeTargets[node] {
		ti := &cw.layout[t]
		if fallback < 0 {
			fallback = t
		}
		end := ti.base + ti.size
		if ti.size == 0 {
			end = ti.base + 1
		}
		if disp >= ti.base && disp < end {
			return t
		}
	}
	return fallback
}

// setServer stages target t's effective server; g == -1 reverts to the
// static binding. The change commits immediately when t has nothing in
// flight, and is otherwise left pending for the op observer to commit
// at t's next quiescent instant — so a server change never overlaps
// service under the old server (see the header comment). Reports
// whether the change committed now.
func (sh *winShared) setServer(t, g int) bool {
	if sh.inflight[t] != 0 {
		sh.pending[t] = g
		return false
	}
	sh.commit(t, g)
	return true
}

func (sh *winShared) commit(t, g int) {
	if g < 0 {
		delete(sh.server, t)
	} else {
		sh.server[t] = g
	}
	delete(sh.pending, t)
	if sig := sh.handover[t]; sig != nil {
		delete(sh.handover, t)
		sig.Broadcast()
	}
}

// awaitHandover parks the calling origin while target t has a staged
// server change. Routing its new operation to the old server would
// keep the target busy forever under sustained traffic (the commit
// needs a quiescent instant), while routing to the new one would break
// the single-server invariant — so the issue briefly waits out the
// drain: the in-flight operations reach their terminal events, the op
// observer commits the change, and every parked origin resumes against
// the new server. The one excluded case is a change away from a
// self-routed (degraded) target: the target process itself may be the
// issuer there, and parking it would stall the drain it is waiting
// for; those revert lazily at a natural quiescent instant instead.
// Runs in proc context.
func (sh *winShared) awaitHandover(p *Process, t int) {
	ti := &sh.cw.layout[t]
	for {
		if _, ok := sh.pending[t]; !ok {
			return
		}
		if cur, ok := sh.server[t]; ok && cur == ti.selfInternal {
			return
		}
		sig := sh.handover[t]
		if sig == nil {
			sig = &sim.Signal{}
			sh.handover[t] = sig
		}
		sig.Wait(p.r.Proc(), "overload: draining target for binding handover")
	}
}

// serverOf resolves target t's destination server: the staged one when
// a change is pending (so decisions see the future binding), else the
// committed one, else the static binding.
func (sh *winShared) serverOf(t int, ti *tinfo) int {
	if g, ok := sh.pending[t]; ok {
		if g < 0 {
			return ti.bound
		}
		return g
	}
	if g, ok := sh.server[t]; ok {
		return g
	}
	return ti.bound
}

// boundGhostFor resolves the effective rank binding of target t: the
// committed server when one is installed, the static binding otherwise.
// Degraded targets route to the target user process itself
// (original-mode progress) — but only for operations riding the active
// window's standing lockall, where per-target lock state is created
// lazily; inside explicit lock epochs the ghosts are already locked, so
// degraded routing falls back to the static binding (Lock additionally
// stages a revert of the degraded server, see window.go).
func (cw *casperWin) boundGhostFor(t int, ti *tinfo, onActive bool) int {
	sh := cw.sh
	if sh == nil {
		return ti.bound
	}
	g := ti.bound
	if s, ok := sh.server[t]; ok {
		g = s
	}
	if g == ti.selfInternal {
		if !onActive {
			return ti.bound
		}
		cw.p.stats.Degraded++
	}
	return g
}

// tick is the periodic sweep, scheduled as a background event so it
// can never extend a run.
func (reb *rebalancer) tick() {
	reb.sweep()
	reb.p.r.World().Engine().AfterBG(reb.cfg.Interval, reb.tick)
}

func (reb *rebalancer) sweep() {
	reb.avg = map[int]sim.Duration{}
	for _, sh := range reb.wins {
		if sh.freed {
			continue
		}
		for _, node := range sh.nodes {
			reb.sweepNode(sh, node)
		}
	}
}

// ghostLoad is one ghost's observed backlog at sweep time.
type ghostLoad struct {
	internal int // internal-comm rank
	world    int
	backlog  sim.Duration
}

// loadOf estimates one ghost's average backlog over the last sweep
// interval: the delta of its queue-depth time integral divided by the
// interval (= average queue depth), times its smoothed per-AM service
// cost. Instantaneous depth is useless here — it collapses to zero at
// every flush boundary and spikes during issue bursts, making the
// rebalancer chase sampling noise instead of sustained load.
func (reb *rebalancer) loadOf(wr int) sim.Duration {
	if v, ok := reb.avg[wr]; ok {
		return v
	}
	rk := reb.p.r.World().RankByID(wr)
	integ := rk.LoadIntegral()
	delta := integ - reb.lastInteg[wr]
	reb.lastInteg[wr] = integ
	avgDepth := float64(delta) / float64(reb.cfg.Interval)
	v := sim.Duration(avgDepth * rk.ServiceEWMA())
	reb.avg[wr] = v
	return v
}

// sweepNode examines one node of one window: drop server entries at
// dead ghosts, handle saturation/restore, then migrate at most
// MaxMovesPerSweep bindings from the hottest ghost to the coldest.
func (reb *rebalancer) sweepNode(sh *winShared, node int) {
	cw := sh.cw
	world := cw.p.r.World()
	targets := sh.nodeTargets[node]
	if len(targets) == 0 {
		return
	}
	ti0 := &cw.layout[targets[0]]

	var loads []ghostLoad
	for _, g := range ti0.ghosts {
		wr := cw.internal.WorldRank(g)
		if world.HealthFailed(wr) {
			// Dead ghost: drop any server entry still pointing at it; the
			// health failover path owns rerouting from here.
			for _, t := range targets {
				if s, ok := sh.server[t]; ok && s == g {
					sh.setServer(t, -1)
				}
				if p, ok := sh.pending[t]; ok && p == g {
					sh.pending[t] = -1
				}
			}
			continue
		}
		loads = append(loads, ghostLoad{internal: g, world: wr,
			backlog: reb.loadOf(wr)})
	}
	if len(loads) == 0 {
		return // node lost every ghost; PR 1's failover handles it
	}

	if sh.degraded[node] {
		drained := true
		for _, l := range loads {
			if l.backlog > reb.cfg.SaturateThreshold/4 {
				drained = false
				break
			}
		}
		if !drained {
			sh.degHold[node] = 0
			return
		}
		// Hysteresis: restore only after several consecutive drained
		// sweeps, so a node does not flap between degraded and ghost
		// progress at every queue dip.
		sh.degHold[node]++
		if sh.degHold[node] >= 4 {
			sh.degraded[node] = false
			sh.degHold[node] = 0
			for _, t := range targets {
				ti := &cw.layout[t]
				if sh.serverOf(t, ti) == ti.selfInternal {
					sh.setServer(t, -1)
				}
			}
			reb.stats.Restores++
			reb.trace("restore", node, loads[0].world)
		}
		return
	}

	saturated := true
	for _, l := range loads {
		if l.backlog < reb.cfg.SaturateThreshold {
			saturated = false
			break
		}
	}
	if saturated {
		// Every ghost of the node is saturated: degrade to target-side
		// progress, per target, skipping targets pinned by an open lock
		// epoch. Each switch commits at the target's next quiescent
		// instant, so no ordering is lost and nothing deadlocks.
		moved := false
		for _, t := range targets {
			if sh.lockHolds[t] != 0 {
				continue
			}
			sh.setServer(t, cw.layout[t].selfInternal)
			moved = true
		}
		if moved {
			sh.degraded[node] = true
			sh.everDeg[node] = true
			sh.degHold[node] = 0
			reb.stats.Saturations++
			reb.trace("saturate", node, loads[0].world)
		}
		return
	}

	if len(loads) < 2 || cw.binding == BindSegment {
		// Segment binding routes by chunk owner; rank migration has no
		// effect there.
		return
	}

	// A sustained queue on some ghost is the TRIGGER for rebalancing;
	// the DECISION of what to move comes from per-target cumulative
	// arrival counts. Queue readings oscillate with issue bursts and
	// flush drains — using them to pick moves creates a feedback loop
	// where the rebalancer manufactures the imbalance it then chases.
	// Arrival counts are stable under a stationary workload: when the
	// per-ghost arrival loads are already balanced, no queue transient
	// can cause a move.
	maxBack := sim.Duration(0)
	for _, l := range loads {
		if l.backlog > maxBack {
			maxBack = l.backlog
		}
	}
	if maxBack < reb.cfg.MigrateThreshold {
		return
	}

	idxOf := map[int]int{}
	for i, l := range loads {
		idxOf[l.internal] = i
	}
	bindOf := func(t int) (int, bool) {
		i, live := idxOf[sh.serverOf(t, &cw.layout[t])]
		return i, live
	}
	loadR := make([]int64, len(loads))
	for _, t := range targets {
		if i, ok := bindOf(t); ok {
			loadR[i] += sh.routed[t]
		}
	}

	moves := 0
	for moves < reb.cfg.MaxMovesPerSweep {
		hot, cold := 0, 0
		for i := range loadR {
			if loadR[i] > loadR[hot] {
				hot = i
			}
			if loadR[i] < loadR[cold] {
				cold = i
			}
		}
		// Move only under a real arrival imbalance (hot ≥ 1.5× cold).
		if hot == cold || loadR[hot]*2 < loadR[cold]*3 {
			return
		}
		// Best single move: the hot ghost's target with the largest
		// arrival count that still shrinks the hot-cold gap.
		diff := loadR[hot] - loadR[cold]
		best, bestRate := -1, int64(0)
		for _, t := range targets {
			if i, ok := bindOf(t); !ok || i != hot {
				continue
			}
			r := sh.routed[t]
			if r > diff || r <= bestRate || r == 0 {
				continue
			}
			if sh.lockHolds[t] != 0 {
				// Migration inside an open lock epoch would change
				// which ghost orders the epoch's accumulates; defer to
				// the epoch boundary (III-B's correctness rule).
				reb.stats.DeferredLock++
				continue
			}
			best, bestRate = t, r
		}
		if best < 0 {
			return
		}
		if !sh.setServer(best, loads[cold].internal) {
			// The move still happens, but commits only at the target's
			// next quiescent instant (at latest, the next flush).
			reb.stats.DeferredBusy++
		}
		loadR[hot] -= bestRate
		loadR[cold] += bestRate
		reb.stats.Migrations++
		reb.trace("rebind", loads[hot].world, loads[cold].world)
		moves++
	}
}

func (reb *rebalancer) trace(kind string, rank, peer int) {
	w := reb.p.r.World()
	if t := w.Tracer(); t.Enabled() {
		t.RecordFault(trace.Fault{Kind: kind, Rank: rank, Peer: peer, At: w.Engine().Now()})
	}
}

// OverloadStats returns the rebalancer's decision counters for this
// process's world (zero when Config.Overload is nil or no window has
// been created yet).
func (p *Process) OverloadStats() OverloadStats {
	return overloadStatsOf(p.r.World())
}

// VisitOverloadStats calls fn with the world's rebalancer counters,
// if an overload rebalancer ever ran on it — for harnesses that only
// hold the finished *mpi.World.
func VisitOverloadStats(w *mpi.World, fn func(OverloadStats)) {
	v := w.SharedState(rebalancerKey, func() interface{} { return (*rebalancer)(nil) })
	if reb, ok := v.(*rebalancer); ok && reb != nil {
		fn(reb.stats)
	}
}

func overloadStatsOf(w *mpi.World) OverloadStats {
	v := w.SharedState(rebalancerKey, func() interface{} { return (*rebalancer)(nil) })
	if reb, ok := v.(*rebalancer); ok && reb != nil {
		return reb.stats
	}
	return OverloadStats{}
}

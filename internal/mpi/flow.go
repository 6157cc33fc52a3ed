package mpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FlowConfig enables credit-based flow control for software RMA
// operations. Each origin rank holds a private window of Credits
// toward every target it issues AMs at; a credit is consumed when an
// operation is issued and returned when the target acknowledges it
// (or the transport abandons it). An origin with no credits left
// blocks in virtual time inside the issuing MPI call until a credit
// drains back, so a saturated ghost's queue depth is bounded by
// Credits × #origins instead of growing without limit.
type FlowConfig struct {
	// Credits is the per-(origin,target) credit window. Zero selects
	// the default of 64 outstanding operations.
	Credits int
}

const defaultCredits = 64

// flowState is the world-global credit table. Channels are created
// lazily per (origin,target) pair; order records creation order so
// diagnostics iterate deterministically.
type flowState struct {
	w       *World
	credits int
	chans   map[[2]int]*creditChan
	order   [][2]int
}

// creditChan is one origin→target credit window.
type creditChan struct {
	origin, target int
	available      int
	waiters        int
	stalls         int64
	sig            sim.Signal
	waitReason     string // interned park label (built once, not per park)
}

func newFlowState(w *World, cfg *FlowConfig) *flowState {
	credits := cfg.Credits
	if credits <= 0 {
		credits = defaultCredits
	}
	return &flowState{
		w:       w,
		credits: credits,
		chans:   make(map[[2]int]*creditChan),
	}
}

func (f *flowState) chanFor(origin, target int) *creditChan {
	key := [2]int{origin, target}
	ch := f.chans[key]
	if ch == nil {
		ch = &creditChan{
			origin: origin, target: target, available: f.credits,
			waitReason: fmt.Sprintf("awaiting AM credit to rank %d", target),
		}
		f.chans[key] = ch
		f.order = append(f.order, key)
	}
	return ch
}

// acquire takes one credit toward target on behalf of rank r, blocking
// the calling proc in virtual time while the window is exhausted, and
// returns the channel holding the credit. Must run in proc context; the
// rank is inside an MPI call, so self-targeted AMs keep draining while it
// is parked. A wait that never ends is a deadlock, which the stall
// watchdog reports.
func (f *flowState) acquire(r *Rank, target int) *creditChan {
	ch := f.chanFor(r.id, target)
	if ch.available > 0 {
		ch.available--
		return ch
	}
	start := f.w.eng.Now()
	r.stats[CreditStalls]++
	ch.stalls++
	for ch.available <= 0 {
		ch.waiters++
		ch.sig.Wait(r.proc, ch.waitReason)
		ch.waiters--
	}
	r.stats[CreditStallTime] += int64(f.w.eng.Now() - start)
	ch.available--
	return ch
}

// serve is acquire for queued item it, an RMA call, at the pop where the
// eager call acquires: it returns the channel holding the credit, or
// reports true having registered the rank's served wait on the window,
// and is run again when that wakes it. The stall is counted as acquire
// counts it, from it.d, its start.
func (f *flowState) serve(q *issueQueue, it *issueItem) (*creditChan, bool) {
	r := q.r
	ch := f.chanFor(r.id, it.w.g.comm.ranks[it.call.target])
	if it.stage == stCredit {
		ch.waiters--
	} else {
		if ch.available > 0 {
			ch.available--
			return ch, false
		}
		it.d = sim.Duration(f.w.eng.Now())
		r.stats[CreditStalls]++
		ch.stalls++
	}
	if ch.available <= 0 {
		ch.waiters++
		it.stage = stCredit
		ch.sig.Serve(r.proc, q, ch.waitReason)
		return nil, true
	}
	r.stats[CreditStallTime] += int64(f.w.eng.Now() - sim.Time(it.d))
	ch.available--
	return ch, false
}

// release returns one credit and wakes any origin parked on the window.
func (ch *creditChan) release() {
	ch.available++
	ch.sig.Broadcast()
}

// waitEdges reports the credit windows currently blocking an origin,
// as wait-for graph edges (origin blocked on target).
func (f *flowState) waitEdges() []waitInfo {
	var out []waitInfo
	for _, key := range f.order {
		ch := f.chans[key]
		if ch.waiters > 0 {
			out = append(out, waitInfo{
				from:  ch.origin,
				to:    ch.target,
				label: fmt.Sprintf("AM credits (%d waiting, window %d)", ch.waiters, f.credits),
			})
		}
	}
	return out
}

// waitInfo is one edge of the world's wait-for graph.
type waitInfo struct {
	from, to int
	label    string
}

// lockEdges appends the edges of comm rank me waiting for a lock on
// target t: one to each rank that holds a lock on t, found as the handles
// whose channel to t has a granted lock not yet released, or one to t
// itself while no rank holds one (the request or the grant is on the wire).
func (g *winGlobal) lockEdges(edges []waitInfo, me, t int, label string) []waitInfo {
	from, held := g.comm.ranks[me], false
	for _, h := range g.handles {
		if h.me == me {
			continue
		}
		if ch := h.lookupChannel(t); ch != nil && ch.lock.requested && ch.lock.granted.Done() &&
			ch.lock.phase != lockPhaseRelease {
			edges = append(edges, waitInfo{from: from, to: g.comm.ranks[h.me], label: label})
			held = true
		}
	}
	if !held {
		edges = append(edges, waitInfo{from: from, to: g.comm.ranks[t], label: label})
	}
	return edges
}

// Diagnose renders the world's wait-for graph: who is blocked on which
// credit window, lock holder, or unacknowledged epoch (acks that have landed,
// deferred or not, are no edge; see chanState.unlanded). Every world is
// its engine's sim.Diagnoser, so deadlock and watchdog errors carry it.
func (w *World) Diagnose() []string {
	var edges []waitInfo
	if w.flow != nil {
		edges = append(edges, w.flow.waitEdges()...)
	}
	for _, g := range w.wins {
		if g.freed {
			continue
		}
		for _, win := range g.handles {
			for t, ch := win.channelFrom(0); ch != nil; t, ch = win.channelFrom(t + 1) {
				if n := ch.unlanded(w.eng); n > 0 {
					edges = append(edges, waitInfo{
						from:  g.comm.ranks[win.me],
						to:    g.comm.ranks[t],
						label: fmt.Sprintf("win %d: %d unacked RMA op(s)", g.id, n),
					})
				}
				if ch.lock.requested && !ch.lock.granted.Done() {
					edges = g.lockEdges(edges, win.me, t, fmt.Sprintf("win %d: awaiting lock grant", g.id))
				}
			}
		}
		for t, mgr := range g.lockMgrs {
			if mgr == nil || len(mgr.waiting()) == 0 {
				continue
			}
			shared, excl := mgr.held()
			hold := fmt.Sprintf("%d shared", shared)
			if excl {
				hold = "exclusive"
			}
			for _, req := range mgr.waiting() {
				edges = g.lockEdges(edges, req.win.me, t, fmt.Sprintf("win %d: queued behind %s lock", g.id, hold))
			}
		}
	}
	const maxEdges = 40
	if len(edges) > maxEdges {
		edges = edges[:maxEdges]
	}
	if len(edges) == 0 {
		return nil
	}
	tedges := make([]trace.WaitEdge, len(edges))
	for i, e := range edges {
		tedges[i] = trace.WaitEdge{From: e.from, To: e.to, Label: e.label}
	}
	states := []sim.SchedulerState{w.eng.SchedulerState()}
	lines := []string{"wait-for graph:"}
	lines = append(lines, trace.RenderWaitGraph(tedges)...)
	lines = append(lines, trace.RenderSchedulerStates(states)...)
	return lines
}

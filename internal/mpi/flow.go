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
	// Timeout bounds how long an origin waits for a credit. Zero
	// means wait forever. A timeout only takes effect under
	// ErrorsReturn, where expiry surfaces as MPI_ERR_BACKLOG and the
	// operation is dropped; under ErrorsAreFatal it is ignored
	// (blocking forever is indistinguishable from deadlock, which the
	// stall watchdog reports).
	Timeout sim.Duration
}

const defaultCredits = 64

// flowState is the world-global credit table. Channels are created
// lazily per (origin,target) pair; order records creation order so
// diagnostics iterate deterministically.
type flowState struct {
	w       *World
	credits int
	timeout sim.Duration
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
		timeout: cfg.Timeout,
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
// the calling proc in virtual time while the window is exhausted. It
// returns the channel holding the credit, or nil if the wait timed out
// (ErrBacklog has been raised on r in that case). Must run in proc
// context; the rank is inside an MPI call, so self-targeted AMs keep
// draining while it is parked.
func (f *flowState) acquire(r *Rank, target int) *creditChan {
	ch := f.chanFor(r.id, target)
	if ch.available > 0 {
		ch.available--
		return ch
	}
	deadline := sim.Time(0)
	timed := f.timeout > 0 && f.w.cfg.Errors == ErrorsReturn
	if timed {
		deadline = f.w.eng.Now() + sim.Time(f.timeout)
		f.w.eng.AfterBG(f.timeout, func() { ch.sig.Broadcast() })
	}
	start := f.w.eng.Now()
	r.stats[CreditStalls]++
	ch.stalls++
	for ch.available <= 0 {
		if timed && f.w.eng.Now() >= deadline {
			r.stats[CreditStallTime] += int64(f.w.eng.Now() - start)
			r.stats[BacklogDropped]++
			r.raise(ErrBacklog, "no AM credit toward rank %d after %v (window %d exhausted)",
				target, f.timeout, f.credits)
			return nil
		}
		ch.waiters++
		ch.sig.Wait(r.proc, ch.waitReason)
		ch.waiters--
	}
	r.stats[CreditStallTime] += int64(f.w.eng.Now() - start)
	ch.available--
	return ch
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

// waitDiagnostics renders the world's wait-for graph: who is blocked
// on which credit window, lock, or unacknowledged epoch. Installed as
// a sim diagnostic so deadlock/watchdog errors carry it.
func (w *World) waitDiagnostics() []string {
	var edges []waitInfo
	if w.flow != nil {
		edges = append(edges, w.flow.waitEdges()...)
	}
	for _, g := range w.wins {
		if g.freed {
			continue
		}
		for _, win := range g.handles {
			for t, ch := range win.chans { // ascending target order
				if ch == nil {
					continue
				}
				if n := ch.pending.Pending(); n > 0 {
					edges = append(edges, waitInfo{
						from:  g.comm.ranks[win.me],
						to:    g.comm.ranks[t],
						label: fmt.Sprintf("win %d: %d unacked RMA op(s)", g.id, n),
					})
				}
				if ch.lock.requested && !ch.lock.granted.Done() {
					edges = append(edges, waitInfo{
						from:  g.comm.ranks[win.me],
						to:    g.comm.ranks[t],
						label: fmt.Sprintf("win %d: awaiting lock grant", g.id),
					})
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
				edges = append(edges, waitInfo{
					from:  g.comm.ranks[req.win.me],
					to:    g.comm.ranks[t],
					label: fmt.Sprintf("win %d: queued behind %s lock", g.id, hold),
				})
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

package mpi

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// rankEngine is a rank's target-side RMA progress engine: the simulated
// MPI stack that services incoming software active messages. It is the
// heart of the reproduction — which entity runs this engine, and when,
// is exactly what distinguishes the paper's progress models:
//
//   - ProgressNone: the rank's own core services AMs, but only while the
//     rank is inside an MPI call (inMPI > 0). AMs arriving while the rank
//     computes wait in the deferred list.
//   - ProgressThread: a background thread services AMs immediately, with
//     the ThreadAM lock-contention multiplier; when oversubscribed it
//     also steals the host's compute cycles.
//   - ProgressInterrupt: AMs arriving while the rank is outside MPI
//     raise an interrupt — the handler pays InterruptCost and steals the
//     host's cycles (the DMAPP model).
//
// A Casper ghost process needs no special mode: it parks inside MPI_RECV
// forever, so inMPI is always > 0 and its AMs are serviced on arrival at
// full speed — the paper's central mechanism.
type rankEngine struct {
	r      *Rank
	srv    *sim.Server // serial AM service pipeline of this rank
	inMPI  int         // MPI call nesting depth
	stolen sim.Duration

	// Software AMs deferred until the next MPI entry, in arrival order,
	// linked through rmaOp.link (whose At keeps the arrival time).
	deferredHead, deferredTail *rmaOp

	// Load telemetry for the overload rebalancer: AMs submitted to the
	// pipeline but not yet serviced, the high-water mark, and an EWMA
	// of per-AM service cost. Pure bookkeeping — never affects timing.
	depth      int
	peakDepth  int
	ewma       float64      // smoothed AM service cost, ns
	depthInteg sim.Duration // time integral of depth (depth x elapsed)
	depthAt    sim.Time     // last depth change
}

func (e *rankEngine) init(r *Rank) {
	e.r = r
	e.srv = sim.NewServer(r.eng)
}

// LoadDepth returns the number of software AMs submitted to this
// rank's service pipeline and not yet serviced.
func (r *Rank) LoadDepth() int { return r.engine.depth }

// PeakLoadDepth returns the high-water mark of LoadDepth.
func (r *Rank) PeakLoadDepth() int { return r.engine.peakDepth }

// ServiceEWMA returns the smoothed per-AM service cost observed at
// this rank, in nanoseconds (0 before the first AM).
func (r *Rank) ServiceEWMA() float64 { return r.engine.ewma }

// LoadIntegral returns the time integral of LoadDepth since the start
// of the run. The delta between two samples divided by the sampling
// interval is the average queue depth over that interval — a burst-
// and flush-dip-free load signal for the overload rebalancer.
func (r *Rank) LoadIntegral() sim.Duration {
	e := r.engine
	return e.depthInteg + sim.Duration(e.depth)*sim.Duration(r.eng.Now().Sub(e.depthAt))
}

// noteDepth accrues the depth integral and applies a depth change.
func (e *rankEngine) noteDepth(dd int) {
	now := e.r.eng.Now()
	e.depthInteg += sim.Duration(e.depth) * sim.Duration(now.Sub(e.depthAt))
	e.depthAt = now
	e.depth += dd
	if e.depth > e.peakDepth {
		e.peakDepth = e.depth
	}
}

// BacklogEstimate returns the estimated virtual time this rank needs
// to drain its queued AMs: queue depth × smoothed service cost. The
// overload rebalancer compares these across a node's ghosts.
func (r *Rank) BacklogEstimate() sim.Duration {
	return sim.Duration(float64(r.engine.depth) * r.engine.ewma)
}

// enterMPI marks the rank inside MPI, draining any deferred AMs into the
// service pipeline (the poll that blocking MPI calls perform).
func (e *rankEngine) enterMPI() {
	e.inMPI++
	if e.inMPI == 1 {
		e.drainDeferred()
	}
}

// deferAM holds op back until the rank next polls (drainDeferred).
func (e *rankEngine) deferAM(op *rmaOp) {
	op.link.Next = nil
	if e.deferredTail == nil {
		e.deferredHead = op
	} else {
		e.deferredTail.link.Next = op
	}
	e.deferredTail = op
}

// drainDeferred submits the deferred AMs for service if the rank is
// inside MPI: the poll every MPI entry performs, and what a revived rank
// runs at thaw — one frozen while parked inside an MPI call re-enters
// nothing.
func (e *rankEngine) drainDeferred() {
	if e.inMPI == 0 {
		return
	}
	op := e.deferredHead
	e.deferredHead, e.deferredTail = nil, nil
	for op != nil {
		next := op.next() // service relinks the op into the backlog
		e.service(op, 1.0, 0)
		op = next
	}
}

// release drops everything queued at a rank that died: the deferred AMs
// and the service backlog, whose completions could only ever be
// discarded. The ops' links must be free by the time stream failover
// resubmits them to a replacement engine.
func (e *rankEngine) release() {
	e.deferredHead, e.deferredTail = nil, nil
	e.srv.Release()
}

func (e *rankEngine) leaveMPI() {
	e.inMPI--
	if e.inMPI < 0 {
		panic("mpi: unbalanced leaveMPI")
	}
}

// deliver is invoked (in engine context) when a software AM arrives at
// this rank. The op's link.At carries the NIC delivery time.
func (e *rankEngine) deliver(op *rmaOp) {
	r := e.r
	if r.failed {
		// Dead target: swallow; the origin recovers via timeout/failover.
		return
	}
	if r.down {
		// Down-recoverable target: the AM is deferred and serviced once
		// the revived rank drains it (drainDeferred at thaw, or its next
		// MPI entry).
		e.deferAM(op)
		return
	}
	if now := r.eng.Now(); now < r.stalledUntil {
		// Stalled progress engine: the AM sits in the NIC until the
		// stall ends. Regular event — the origin is parked waiting for
		// the ack, so this must keep the simulation alive. The original
		// arrival time is kept, so the trace shows the full stall.
		// (Cold path: a closure here is fine; it must redeliver to THIS
		// engine, which may differ from rankOf(op.target) on failover.)
		until := r.stalledUntil
		r.eng.At(until, func() { e.deliver(op) })
		return
	}
	switch e.r.w.cfg.Progress {
	case ProgressNone:
		if e.inMPI > 0 {
			e.service(op, 1.0, 0)
		} else {
			e.deferAM(op)
		}
	case ProgressThread:
		cost := e.service(op, e.r.w.net.ThreadAM, 0)
		if e.r.w.cfg.ThreadOversubscribed {
			// The progress thread shares the host core: its service
			// time is stolen from the host's computation.
			e.stolen += cost
			e.r.stats.StolenTime += cost
		}
	case ProgressInterrupt:
		if e.inMPI > 0 {
			e.service(op, 1.0, 0)
		} else {
			cost := e.service(op, 1.0, e.r.w.net.InterruptCost)
			e.r.stats.Interrupts++
			e.stolen += cost
			e.r.stats.StolenTime += cost
		}
	}
}

// service submits the AM to the rank's serial pipeline. factor scales the
// processing cost (thread lock contention); extra adds a fixed overhead
// (interrupt entry). It returns the total service time charged.
func (e *rankEngine) service(op *rmaOp, factor float64, extra sim.Duration) sim.Duration {
	cost := sim.Duration(float64(e.r.memo.AMCost(op.bytes(), op.contiguous()))*factor) + extra
	e.noteDepth(1)
	if e.ewma == 0 {
		e.ewma = float64(cost)
	} else {
		e.ewma = 0.75*e.ewma + 0.25*float64(cost)
	}
	// The op itself is the completion event (phase opPhaseSvcDone pops
	// the depth and applies+acks) and waits in the server's backlog
	// through its own link, so queuing a job allocates nothing however
	// deep the backlog. From here on link.At is the completion time; the
	// eager schedule of a world with the fast paths off leaves the link
	// alone, so it is set here for both.
	op.phase = opPhaseSvcDone
	op.owner = int32(e.r.id)
	arrived := op.link.At
	end := e.srv.SubmitRun(arrived, cost, op)
	op.link.At = end
	if e.r.w.validator != nil {
		op.extra().svcStart = end.Add(-cost)
	}
	e.r.stats.SoftwareAMs++
	e.r.stats.BytesIn += int64(op.bytes())
	if tr := e.r.w.tracer; tr.Enabled() {
		tr.RecordService(trace.Service{
			Rank:      e.r.id,
			Origin:    op.win.comm.ranks[op.origin],
			Kind:      op.kind.String(),
			Bytes:     op.bytes(),
			Arrived:   arrived,
			Start:     end.Add(-cost),
			End:       end,
			Interrupt: extra > 0,
		})
	}
	return cost
}

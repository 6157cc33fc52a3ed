package mpi

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OpKind enumerates RMA communication operations.
type OpKind int

// RMA operation kinds.
const (
	KindPut OpKind = iota
	KindGet
	KindAcc
	KindGetAcc
	KindFetchOp
	KindCAS
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KindPut:
		return "PUT"
	case KindGet:
		return "GET"
	case KindAcc:
		return "ACC"
	case KindGetAcc:
		return "GET_ACC"
	case KindFetchOp:
		return "FETCH_OP"
	case KindCAS:
		return "CAS"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// isWrite reports whether the op modifies target memory.
func (k OpKind) isWrite() bool { return k != KindGet }

// isAtomicFamily reports whether MPI guarantees per-element atomicity
// and same-origin ordering for this kind (the accumulate family,
// MPI-3 §11.7.1).
func (k OpKind) isAtomicFamily() bool {
	return k == KindAcc || k == KindGetAcc || k == KindFetchOp || k == KindCAS
}

// opPhase tracks where an rmaOp is in its scheduled lifecycle, so a
// single Runner implementation (Step) can serve every stage. Each stage
// is scheduled at most once and the phases advance strictly, which is
// what lets one op be its own event payload with no per-stage closure.
type opPhase uint8

const (
	opPhaseNone    opPhase = iota
	opPhaseArrive          // software AM crossing the wire to the target NIC
	opPhaseHW              // hardware put/get applying at arrival
	opPhaseSvcDone         // target pipeline finished servicing
	opPhaseAck             // completion ack crossing back to the origin
)

// rmaOp is one in-flight RMA operation.
type rmaOp struct {
	win    *winGlobal
	kind   OpKind
	origin int // comm rank
	target int
	disp   int
	dt     Datatype
	op     Op
	data   []byte // packed origin payload (put/acc/getacc/fao src; cas new value)
	cmp    []byte // cas compare value (pooled copy)
	dst    []byte // origin result destination (get/getacc/fao/cas), written at apply time

	excl bool // origin held an exclusive lock on the target when issuing
	pscw bool // issued within a PSCW access epoch
	seq  int64

	phase   opPhase
	arrived sim.Time // NIC delivery time at the target (software AM path)

	// Wire-chain bookkeeping (see chanState.wireTail): while crossing
	// the wire the op may be queued behind earlier ops of its channel
	// instead of holding its own heap event. Before that, wireNext links
	// the ops held back behind a pending lock grant (lockMsg.queue).
	wireNext *rmaOp
	wireTS   *chanState
	evSeq    uint64 // event seq reserved at send time

	pending *sim.CompletionSet // origin-side ack tracking (flush)
	req     *RMARequest        // request-based op handle (Rput/Rget), or nil
	credit  *creditChan        // flow-control credit held, or nil

	// Reliability bookkeeping (fault plans only).
	applied bool    // took effect at a target exactly once
	relPkt  *packet // current packet carrying the op

	// Service bookkeeping for the validator.
	svcStart, svcEnd sim.Time
	svcOwner         int // world rank of the servicing engine; -1 for NIC
}

// Step implements sim.Runner: it advances the op through whichever
// lifecycle stage was scheduled. Dispatching the op itself instead of a
// closure keeps the steady-state message path allocation-free.
func (o *rmaOp) Step() {
	switch o.phase {
	case opPhaseArrive:
		o.promoteWire()
		o.win.rankOf(o.target).engine.deliver(o)
	case opPhaseHW:
		o.promoteWire()
		o.applyHardware(o.win.rankOf(o.target))
	case opPhaseSvcDone:
		if o.win.w.ranks[o.svcOwner].eng.Now() != o.svcEnd {
			// Stale completion: the op was submitted to a rank that died
			// with this event still queued, then failed over and
			// resubmitted to a replacement engine (overwriting svcOwner
			// and svcEnd). Only the current submission's completion —
			// the one scheduled at o.svcEnd — may apply the op; letting
			// the orphaned event through would apply it early, against
			// the replacement's accounting, and out of stream order.
			return
		}
		e := &o.win.w.ranks[o.svcOwner].engine
		e.noteDepth(-1)
		o.applyAndAck()
	case opPhaseAck:
		o.ackDelivered()
	default:
		panic(fmt.Sprintf("mpi: rmaOp.Step in phase %d", o.phase))
	}
}

// bytes returns the payload size that determines processing and wire
// cost.
func (o *rmaOp) bytes() int { return o.dt.Size() }

func (o *rmaOp) contiguous() bool { return o.dt.Contiguous() }

// hardwareEligible reports whether this op runs on the simulated NIC
// without target CPU: contiguous put/get on platforms with hardware RMA.
// Accumulates and noncontiguous transfers are always software, matching
// both evaluation platforms in the paper.
func (o *rmaOp) hardwareEligible() bool {
	if o.kind != KindPut && o.kind != KindGet {
		return false
	}
	return o.win.w.net.HardwareEligible(o.dt.Contiguous())
}

// wireOutBytes is the request payload on the wire origin->target.
func (o *rmaOp) wireOutBytes() int {
	if o.kind == KindGet {
		return 16 // request header only
	}
	return o.bytes()
}

// ackBytes is the response payload target->origin.
func (o *rmaOp) ackBytes() int {
	switch o.kind {
	case KindGet, KindGetAcc:
		return o.bytes()
	case KindFetchOp, KindCAS:
		return o.dt.Basic.Size()
	default:
		return 0 // completion ack only
	}
}

// --- Issue path (origin side) ----------------------------------------

// newOp fetches a zeroed rmaOp from the issuing rank's freelist (or the
// heap when recycling is off) and fills the fields common to every kind.
func (w *Win) newOp(kind OpKind, target, disp int, dt Datatype, op Op) *rmaOp {
	o := w.r.getOp()
	o.kind, o.target, o.disp, o.dt, o.op = kind, target, disp, dt, op
	return o
}

// Put implements Window.
func (w *Win) Put(src []byte, target int, disp int, dt Datatype) {
	o := w.newOp(KindPut, target, disp, dt, OpReplace)
	o.data = src
	w.issue(o)
}

// Get implements Window.
func (w *Win) Get(dst []byte, target int, disp int, dt Datatype) {
	o := w.newOp(KindGet, target, disp, dt, OpNoOp)
	o.dst = dst
	w.issue(o)
}

// Accumulate implements Window.
func (w *Win) Accumulate(src []byte, target int, disp int, dt Datatype, op Op) {
	o := w.newOp(KindAcc, target, disp, dt, op)
	o.data = src
	w.issue(o)
}

// GetAccumulate implements Window.
func (w *Win) GetAccumulate(src, result []byte, target int, disp int, dt Datatype, op Op) {
	o := w.newOp(KindGetAcc, target, disp, dt, op)
	o.data, o.dst = src, result
	w.issue(o)
}

// FetchAndOp implements Window.
func (w *Win) FetchAndOp(src, result []byte, target int, disp int, b BasicType, op Op) {
	o := w.newOp(KindFetchOp, target, disp, Scalar(b), op)
	o.data, o.dst = src, result
	w.issue(o)
}

// CompareAndSwap implements Window.
func (w *Win) CompareAndSwap(compare, origin, result []byte, target int, disp int, b BasicType) {
	o := w.newOp(KindCAS, target, disp, Scalar(b), OpReplace)
	o.data, o.cmp, o.dst = origin, compare, result
	w.issue(o)
}

// issue validates the epoch, charges origin-side cost, and either sends
// the op or queues it behind a pending lazy lock acquisition.
func (w *Win) issue(op *rmaOp) {
	r := w.r
	r.engine.enterMPI()
	defer r.mpiLeave()
	r.proc.AdvanceChain(r.callCost(), r.issueCost())

	if err := op.dt.Validate(); err != nil {
		panic(err)
	}
	if !w.g.dynamic {
		// Dynamic windows cannot be bounds-checked at the origin; the
		// target resolves the address at apply time.
		reg := w.g.regions[op.target]
		if op.disp < 0 || op.disp+op.dt.Extent() > reg.n {
			if tw := w.g.comm.ranks[op.target]; op.disp >= 0 &&
				w.g.w.FaultsEnabled() && w.g.w.ranks[tw].failed {
				// The target crashed before it could expose this window,
				// so the region on record is the empty one a dead member
				// contributes. A real origin cannot see that: the
				// operation goes on the wire, is never acknowledged, and
				// fails over to a surviving server once the detector
				// confirms the death. Suppress the bounds check only the
				// omniscient simulator could perform and let the
				// reliable transport recover the op.
			} else {
				r.raise(ErrRMARange, "mpi: %v at disp %d extent %d outside %d-byte window of target %d",
					op.kind, op.disp, op.dt.Extent(), reg.n, op.target)
				// ErrorsReturn: drop the op before any accounting. data/cmp
				// still alias the caller's buffers here, so there is
				// nothing pooled to release — just the op header.
				r.putOp(op)
				return
			}
		}
	}

	if f := w.g.w.flow; f != nil {
		// Acquire a flow-control credit toward the target, blocking in
		// virtual time while the window is exhausted. We are inside an
		// MPI call here, so self-targeted AMs keep draining while the
		// proc is parked.
		ch := f.acquire(r, w.g.comm.ranks[op.target])
		if ch == nil {
			// Credit timeout under ErrorsReturn (ErrBacklog raised):
			// drop before any accounting so flushes cannot hang on the
			// op, but still notify the observer so layered in-flight
			// counters do not leak.
			if w.g.onOpDone != nil {
				w.g.onOpDone(w.me, op.target, op.disp)
			}
			r.putOp(op)
			return
		}
		op.credit = ch
	}

	op.win = w.g
	op.origin = w.me
	w.opSeq++
	op.seq = w.opSeq
	if op.data != nil {
		// Pool the packed payload copy: it lives exactly until the op's
		// terminal state (opTerminal), where it is recycled.
		n := op.dt.Size()
		buf := r.pool.get(n)
		copy(buf, op.data[:n])
		op.data = buf
	}
	if op.cmp != nil {
		// The compare value is snapshotted through the pool too, so the
		// whole op (header and payloads) recycles without garbage.
		n := len(op.cmp)
		buf := r.pool.get(n)
		copy(buf, op.cmp)
		op.cmp = buf
	}
	r.stats.OpsIssued++

	var queueOn *lockMsg
	switch {
	case w.access != nil: // PSCW access epoch
		if !inGroup(w.access.group, op.target) {
			panic(fmt.Sprintf("mpi: PSCW op to target %d outside access group", op.target))
		}
		op.pscw = true
		w.access.issued[op.target]++
		op.pending = &w.channel(op.target).pending
	case w.fenceActive:
		op.pending = &w.channel(op.target).pending
	default: // passive target
		ep, ok := w.coverTarget(op.target)
		if !ok {
			panic(fmt.Sprintf("mpi: %v to target %d without an epoch", op.kind, op.target))
		}
		ch := w.channel(op.target)
		op.excl = ep&epExcl != 0
		op.pending = &ch.pending
		if !ch.lock.requested {
			w.requestLock(op.target)
		}
		if !ch.lock.granted.Done() {
			queueOn = &ch.lock
		}
	}

	// Count the op as outstanding at issue time, so that flushes and
	// fences also wait for operations still queued behind a pending
	// lazy lock acquisition. The window-global count is fence machinery,
	// unusable (and unused — Fence panics) under sharded execution.
	if w.g.w.sharded == nil {
		w.g.inflight.Add(1)
	}
	op.pending.Add(1)
	if op.req != nil {
		op.req.pending.Add(1)
	}
	if queueOn != nil {
		queueOn.queue(op)
		return
	}
	w.send(op)
}

func inGroup(group []int, t int) bool {
	for _, g := range group {
		if g == t {
			return true
		}
	}
	return false
}

// send puts the op on the wire. Runs in the origin's simulation context;
// in-flight accounting happened at issue. Delivery is FIFO per
// (origin, target) channel, as on a connection-oriented transport.
func (w *Win) send(op *rmaOp) {
	g := w.g
	r := w.r
	eng := r.eng
	targetWorld := g.comm.ranks[op.target]
	wire := r.transferTo(targetWorld, op.wireOutBytes())
	ts := w.channel(op.target)
	arrival := eng.Now().Add(wire)
	if arrival <= ts.lastArrival {
		arrival = ts.lastArrival + 1
	}
	ts.lastArrival = arrival
	if rel := r.w.rel; rel != nil {
		rel.sendOp(op, arrival)
		return
	}
	// The op is its own arrival event (see Step), so putting it on the
	// wire allocates nothing.
	op.arrived = arrival
	if op.hardwareEligible() {
		op.phase = opPhaseHW
	} else {
		op.phase = opPhaseArrive
	}
	if tr := g.rankOf(op.target); tr.eng != eng {
		// Cross-shard: the op travels through the mailbox system instead
		// of the wire chain (whose chained heap events are an engine-local
		// optimization). The injection key reserved on the origin engine
		// keeps channel FIFO order; arrival monotonicity was enforced
		// above.
		r.w.sharded.group.InjectRun(eng, tr.eng, arrival, op)
		return
	}
	if eng.FastPathsDisabled() {
		eng.AtRun(arrival, op)
		return
	}
	// Wire chaining: channel arrivals are strictly monotone, so only the
	// channel's head op holds a heap event; later ops queue behind it
	// with their event seq reserved here, at the instant an eager
	// schedule would have assigned it (keeping the timeline identical).
	op.evSeq = eng.ReserveSeq()
	op.wireTS = ts
	if ts.wireTail != nil {
		ts.wireTail.wireNext = op
		ts.wireTail = op
		return
	}
	ts.wireTail = op
	eng.AtRunReserved(arrival, op.evSeq, op)
}

// promoteWire unlinks the op from its channel's wire chain as its
// arrival event fires, scheduling the successor's arrival under the seq
// reserved at send time. No-op for ops that never chained (reliable
// transport, fast paths disabled).
func (o *rmaOp) promoteWire() {
	ts := o.wireTS
	if ts == nil {
		return
	}
	o.wireTS = nil
	next := o.wireNext
	o.wireNext = nil
	if next == nil {
		ts.wireTail = nil
		return
	}
	// The chain only ever forms on same-engine channels (cross-shard ops
	// go through the mailboxes), so the origin's engine is the one whose
	// seq was reserved and whose heap we are standing in.
	o.win.rankOf(o.origin).eng.AtRunReserved(next.arrived, next.evSeq, next)
}

// --- Apply path (target side) ----------------------------------------

// targetRegion resolves the op's destination memory: the static region
// for normal windows, the containing attachment for dynamic ones. ok is
// false when a dynamic resolution failed under ErrorsReturn (the error
// was already raised on the target rank).
func (o *rmaOp) targetRegion() (Region, int, bool) {
	if o.win.dynamic {
		return o.win.resolveDynamic(o.target, o.disp, o.dt.Extent())
	}
	return o.win.regions[o.target], o.disp, true
}

// apply mutates the target memory. Runs in engine context at the moment
// the op takes effect. It reports whether the op resolved and took
// effect; on false (dynamic resolution failure under ErrorsReturn) the
// op is a no-op but must still be acknowledged so the origin does not
// hang.
func (o *rmaOp) apply() bool {
	reg, disp, ok := o.targetRegion()
	o.applied = true
	if !ok {
		return false
	}
	mem := reg.seg.data
	base := reg.off + disp
	// Result bytes land in the origin's buffer here, once: MPI forbids the
	// origin to read it before the flush that follows the ack, so the ack
	// carries the completion only (its wire time still pays for the bytes).
	switch o.kind {
	case KindPut:
		accumulate(OpReplace, o.dt, mem, base, o.data)
	case KindGet:
		gatherInto(o.dst, o.dt, mem, base)
	case KindAcc:
		accumulate(o.op, o.dt, mem, base, o.data)
	case KindGetAcc, KindFetchOp:
		gatherInto(o.dst, o.dt, mem, base)
		accumulate(o.op, o.dt, mem, base, o.data)
	case KindCAS:
		es := o.dt.Basic.Size()
		old := mem[base : base+es]
		swap := bytes.Equal(old, o.cmp[:es])
		copy(o.dst, old)
		if swap {
			copy(old, o.data[:es])
		}
	}
	if o.kind.isWrite() && o.win.w.guards != nil {
		// Journal the post-image for any guard over this memory (app-rank
		// rollback-replay recovery; guards exist only under app-crash plans).
		o.win.w.journalWrite(reg.seg, base, o.dt.Extent())
	}
	if o.pscw {
		p := o.win.pscwState()
		if p.applied[o.target] == nil {
			p.applied[o.target] = map[int]int64{}
		}
		p.applied[o.target][o.origin]++
		o.win.sigFor(o.target).Broadcast()
	}
	return true
}

// applyAndAck is called when the target's progress engine finishes
// servicing a software AM: apply, then send the completion ack (with any
// result data) back to the origin. The op's service interval and owner
// were recorded by the engine at submission.
func (o *rmaOp) applyAndAck() {
	if o.applied {
		// Duplicate service (a retransmission raced the original
		// through a second delivery): exactly-once semantics.
		return
	}
	if o.svcOwner >= 0 && o.win.w.ranks[o.svcOwner].failed {
		// The servicing rank died between queuing and service; the op
		// is recovered through stream failover instead.
		return
	}
	ok := o.apply()
	if v := o.win.w.validator; v != nil && ok {
		reg, disp, _ := o.targetRegion()
		v.recordApply(o, reg, disp, o.svcOwner)
	}
	if o.win.w.sharded == nil {
		o.win.inflight.Done()
	}
	o.ack()
}

// applyHardware is the NIC path: apply at arrival with no target CPU.
func (o *rmaOp) applyHardware(tr *Rank) {
	if o.applied {
		return
	}
	now := tr.eng.Now()
	o.svcStart, o.svcEnd, o.svcOwner = now, now, -1
	ok := o.apply()
	tr.stats.HardwareOps++
	tr.stats.BytesIn += int64(o.bytes())
	if v := o.win.w.validator; v != nil && ok {
		reg, disp, _ := o.targetRegion()
		v.recordApply(o, reg, disp, -1)
	}
	if t := o.win.w.tracer; t.Enabled() {
		t.RecordService(trace.Service{
			Rank: -1, Origin: o.win.comm.ranks[o.origin], Kind: o.kind.String(),
			Bytes: o.bytes(), Arrived: now, Start: now, End: now, Hardware: true,
		})
	}
	if o.win.w.sharded == nil {
		o.win.inflight.Done()
	}
	o.ack()
}

// ack returns the completion (and result payload) to the origin.
func (o *rmaOp) ack() {
	g := o.win
	originWorld := g.comm.ranks[o.origin]
	targetWorld := g.comm.ranks[o.target]
	tr := g.w.ranks[targetWorld]
	wire := tr.transferTo(originWorld, o.ackBytes())
	if rel := g.w.rel; rel != nil {
		rel.sendAck(o.relPkt, wire, true)
		return
	}
	o.phase = opPhaseAck
	or := g.w.ranks[originWorld]
	if or.eng != tr.eng {
		g.w.sharded.group.InjectRun(tr.eng, or.eng, tr.eng.Now().Add(wire), o)
		return
	}
	tr.eng.AfterRun(wire, o)
}

// ackDelivered lands the completion ack at the origin: flush/request
// trackers release and the op reaches its terminal state. Any result
// bytes are already in the origin's buffer (see apply).
func (o *rmaOp) ackDelivered() {
	o.pending.Done()
	if o.req != nil {
		o.req.pending.Done()
	}
	o.win.opTerminal(o)
}

// opTerminal runs exactly once per op that passed issue-time
// validation, when it reaches its terminal state (ack delivered at the
// origin, abandoned by the transport, or dropped on credit timeout):
// it returns the flow-control credit, recycles the op's pooled
// buffers, and notifies the op observer. Runs in engine context.
func (g *winGlobal) opTerminal(o *rmaOp) {
	// Buffers recycle into the origin's pool, where they were drawn:
	// terminal state is reached in the origin's engine context, whose
	// pool is the only one legal to touch.
	or := g.rankOf(o.origin)
	if o.credit != nil {
		o.credit.release()
		o.credit = nil
	}
	if o.data != nil {
		or.pool.put(o.data)
		o.data = nil
	}
	if o.cmp != nil {
		or.pool.put(o.cmp)
		o.cmp = nil
	}
	if g.onOpDone != nil {
		g.onOpDone(o.origin, o.target, o.disp)
	}
	// Recycle the header last: putOp zeroes the op. Under a fault plan
	// recycling is disabled (packets hold op pointers past this point).
	or.putOp(o)
}

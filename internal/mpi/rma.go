package mpi

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OpKind enumerates RMA communication operations.
type OpKind uint8

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

// opInline is the largest packed payload an op carries in its own header
// instead of a pooled buffer: two 8-byte basic elements, which covers a
// CAS (origin value and compare value) and every scalar or 16-byte op.
const opInline = 16

// rmaOp is one in-flight RMA operation, and the only object one costs:
// small payloads live in the header, every queue the op waits in runs
// through its one link, and what only optional machinery needs sits
// behind ext. The fields the arrive, service and ack events read come
// first; the whole header stays within the 224-byte size class
// (TestRMAOpSize).
type rmaOp struct {
	win *winGlobal
	ch  *chanState // the origin's channel to the target: ack tracking, wire chain

	// link is the op's place in the one queue it is waiting in (see the
	// lifecycle table in DESIGN.md): the origin's freelist, the ops held
	// behind a pending lock grant (lockMsg), the channel's wire chain
	// (chanState.wireTail), the target's deferred-AM list
	// (rankEngine.deferredHead) or its service backlog (sim.Server). link.At
	// is the NIC delivery time at the target until the op is submitted
	// for service, and the service completion time from then on.
	link sim.Link

	kind    OpKind
	phase   opPhase
	excl    bool // origin held an exclusive lock on the target when issuing
	pscw    bool // issued within a PSCW access epoch
	op      Op
	origin  int32 // comm rank
	target  int32
	applied bool  // took effect at a target exactly once
	chained bool  // in the channel's wire chain (see promoteWire)
	owner   int32 // world rank of the servicing engine; -1 for NIC

	disp int
	dt   Datatype
	data []byte // packed origin payload (put/acc/getacc/fao src; cas new value): inl or pooled
	dst  []byte // origin result destination (get/getacc/fao/cas), written at apply time

	// inl holds a payload of at most opInline bytes; for a CAS the compare
	// value follows the origin value at inl[8:].
	inl [opInline]byte

	ext *opExt
}

// opExt is the part of an op only optional machinery uses: request-based
// operations, flow control, the reliable transport and the validator. It
// is allocated on first need and stays with the header across recycling.
type opExt struct {
	req      *RMARequest // request-based op handle (Rput/Rget), or nil
	credit   *creditChan // flow-control credit held, or nil
	relPkt   *packet     // current packet carrying the op (fault plans)
	seq      int64       // issue order on the origin's handle (validator)
	svcStart sim.Time    // start of the service interval (validator)
}

// extra returns the op's extension, allocating it on first use.
func (o *rmaOp) extra() *opExt {
	if o.ext == nil {
		o.ext = &opExt{}
	}
	return o.ext
}

// QueueLink implements sim.Linked.
func (o *rmaOp) QueueLink() *sim.Link { return &o.link }

// next returns the op queued behind o, or nil.
func (o *rmaOp) next() *rmaOp {
	n, _ := o.link.Next.(*rmaOp)
	return n
}

// reqDone releases the op's request handle, if it has one.
func (o *rmaOp) reqDone() {
	if x := o.ext; x != nil && x.req != nil {
		x.req.pending.Done()
	}
}

// Step implements sim.Runner: it advances the op through whichever
// lifecycle stage was scheduled. Dispatching the op itself instead of a
// closure keeps the steady-state message path allocation-free.
func (o *rmaOp) Step() {
	switch o.phase {
	case opPhaseArrive:
		o.promoteWire()
		o.win.rankOf(int(o.target)).engine.deliver(o)
	case opPhaseHW:
		o.promoteWire()
		o.applyHardware(o.win.rankOf(int(o.target)))
	case opPhaseSvcDone:
		owner := o.win.w.ranks[o.owner]
		if owner.eng.Now() != o.link.At {
			// Stale completion: with the fast paths off every completion
			// is its own event, and this one was scheduled on a rank that
			// died before it fired; the op has since failed over and been
			// resubmitted to a replacement engine (overwriting owner and
			// link.At). Only the current submission's completion — the one
			// scheduled at link.At — may apply the op; letting the
			// orphaned event through would apply it early, against the
			// replacement's accounting, and out of stream order. (A dead
			// rank's service backlog is released outright, see killRank.)
			return
		}
		owner.engine.noteDepth(-1)
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
	o.kind, o.target, o.disp, o.dt, o.op = kind, int32(target), disp, dt, op
	return o
}

// Put implements Window.
func (w *Win) Put(src []byte, target int, disp int, dt Datatype) {
	o := w.newOp(KindPut, target, disp, dt, OpReplace)
	o.data = src
	w.issue(o, nil)
}

// Get implements Window.
func (w *Win) Get(dst []byte, target int, disp int, dt Datatype) {
	o := w.newOp(KindGet, target, disp, dt, OpNoOp)
	o.dst = dst
	w.issue(o, nil)
}

// Accumulate implements Window.
func (w *Win) Accumulate(src []byte, target int, disp int, dt Datatype, op Op) {
	o := w.newOp(KindAcc, target, disp, dt, op)
	o.data = src
	w.issue(o, nil)
}

// GetAccumulate implements Window.
func (w *Win) GetAccumulate(src, result []byte, target int, disp int, dt Datatype, op Op) {
	o := w.newOp(KindGetAcc, target, disp, dt, op)
	o.data, o.dst = src, result
	w.issue(o, nil)
}

// FetchAndOp implements Window.
func (w *Win) FetchAndOp(src, result []byte, target int, disp int, b BasicType, op Op) {
	o := w.newOp(KindFetchOp, target, disp, Scalar(b), op)
	o.data, o.dst = src, result
	w.issue(o, nil)
}

// CompareAndSwap implements Window.
func (w *Win) CompareAndSwap(compare, origin, result []byte, target int, disp int, b BasicType) {
	o := w.newOp(KindCAS, target, disp, Scalar(b), OpReplace)
	o.data, o.dst = origin, result
	w.issue(o, compare)
}

// issue validates the epoch, charges origin-side cost, and either sends
// the op or queues it behind a pending lazy lock acquisition. op.data and
// cmp (the compare value of a CAS, nil otherwise) still alias the
// caller's buffers; issue snapshots both, so the caller owns them again
// as soon as the call returns.
func (w *Win) issue(op *rmaOp, cmp []byte) {
	r := w.r
	r.engine.enterMPI()
	defer r.mpiLeave()
	r.proc.AdvanceChain(r.callCost(), r.issueCost())

	if err := op.dt.Validate(); err != nil {
		panic(err)
	}
	target := int(op.target)
	if !w.g.dynamic {
		// Dynamic windows cannot be bounds-checked at the origin; the
		// target resolves the address at apply time.
		reg := w.g.regions[target]
		if op.disp < 0 || op.disp+op.dt.Extent() > reg.n {
			if tw := w.g.comm.ranks[target]; op.disp >= 0 &&
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
					op.kind, op.disp, op.dt.Extent(), reg.n, target)
				// ErrorsReturn: drop the op before any accounting. data
				// still aliases the caller's buffer here, so there is
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
		credit := f.acquire(r, w.g.comm.ranks[target])
		if credit == nil {
			// Credit timeout under ErrorsReturn (ErrBacklog raised):
			// drop before any accounting so flushes cannot hang on the
			// op, but still notify the observer so layered in-flight
			// counters do not leak.
			if w.g.onOpDone != nil {
				w.g.onOpDone(w.me, target, op.disp)
			}
			r.putOp(op)
			return
		}
		op.extra().credit = credit
	}

	op.win = w.g
	op.origin = int32(w.me)
	w.opSeq++
	if w.g.w.validator != nil {
		op.extra().seq = w.opSeq
	}
	if op.data != nil {
		// Snapshot the packed payload: into the header when it fits, else
		// into a pooled buffer that lives exactly until the op's terminal
		// state (opTerminal), where it is recycled.
		n := op.dt.Size()
		buf := op.inl[:]
		if n > opInline {
			buf = r.pool.get(n)
		}
		op.data = buf[:copy(buf, op.data[:n])]
	}
	if cmp != nil {
		// A CAS moves one basic element, so its origin value (above) and
		// the compare value share the header.
		copy(op.inl[opInline/2:], cmp[:op.dt.Basic.Size()])
	}
	r.stats.OpsIssued++

	var queueOn *lockMsg
	switch {
	case w.access != nil: // PSCW access epoch
		if !inGroup(w.access.group, target) {
			panic(fmt.Sprintf("mpi: PSCW op to target %d outside access group", target))
		}
		op.pscw = true
		w.access.issued[target]++
		op.ch = w.channel(target)
	case w.fenceActive:
		op.ch = w.channel(target)
	default: // passive target
		ep, ok := w.coverTarget(target)
		if !ok {
			panic(fmt.Sprintf("mpi: %v to target %d without an epoch", op.kind, target))
		}
		ch := w.channel(target)
		op.excl = ep&epExcl != 0
		op.ch = ch
		if !ch.lock.requested {
			w.requestLock(target)
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
	op.ch.pending.Add(1)
	if x := op.ext; x != nil && x.req != nil {
		x.req.pending.Add(1)
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
	ts := op.ch
	arrival := eng.Now().Add(wire)
	if arrival <= ts.lastArrival {
		arrival = ts.lastArrival + 1
	}
	ts.lastArrival = arrival
	if rel := r.w.rel; rel != nil {
		rel.sendOp(op, w.relStream(rel, int(op.target)), arrival)
		return
	}
	// The op is its own arrival event (see Step), so putting it on the
	// wire allocates nothing.
	op.link.At = arrival
	if op.hardwareEligible() {
		op.phase = opPhaseHW
	} else {
		op.phase = opPhaseArrive
	}
	if tr := g.w.ranks[targetWorld]; tr.eng != eng {
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
	op.link.Seq = eng.ReserveSeq()
	op.chained = true
	if ts.wireTail != nil {
		ts.wireTail.link.Next = op
		ts.wireTail = op
		return
	}
	ts.wireTail = op
	eng.AtRunReserved(arrival, op.link.Seq, op)
}

// promoteWire unlinks the op from its channel's wire chain as its
// arrival event fires, scheduling the successor's arrival under the seq
// reserved at send time. No-op for ops that never chained (reliable
// transport, cross-shard, fast paths disabled).
func (o *rmaOp) promoteWire() {
	if !o.chained {
		return
	}
	o.chained = false
	next := o.next()
	if next == nil {
		o.ch.wireTail = nil
		return
	}
	o.link.Next = nil
	// The chain only ever forms on same-engine channels (cross-shard ops
	// go through the mailboxes), so the origin's engine is the one whose
	// seq was reserved and whose heap we are standing in.
	o.win.rankOf(int(o.origin)).eng.AtRunReserved(next.link.At, next.link.Seq, next)
}

// --- Apply path (target side) ----------------------------------------

// targetRegion resolves the op's destination memory: the static region
// for normal windows, the containing attachment for dynamic ones. ok is
// false when a dynamic resolution failed under ErrorsReturn (the error
// was already raised on the target rank).
func (o *rmaOp) targetRegion() (Region, int, bool) {
	if o.win.dynamic {
		return o.win.resolveDynamic(int(o.target), o.disp, o.dt.Extent())
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
		swap := bytes.Equal(old, o.inl[opInline/2:opInline/2+es])
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
		target, origin := int(o.target), int(o.origin)
		if p.applied[target] == nil {
			p.applied[target] = map[int]int64{}
		}
		p.applied[target][origin]++
		o.win.sigFor(target).Broadcast()
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
	if o.owner >= 0 && o.win.w.ranks[o.owner].failed {
		// The servicing rank died between queuing and service; the op
		// is recovered through stream failover instead.
		return
	}
	ok := o.apply()
	if v := o.win.w.validator; v != nil && ok {
		reg, disp, _ := o.targetRegion()
		v.recordApply(o, reg, disp, int(o.owner))
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
	o.link.At, o.owner = now, -1
	ok := o.apply()
	tr.stats.HardwareOps++
	tr.stats.BytesIn += int64(o.bytes())
	if v := o.win.w.validator; v != nil && ok {
		o.extra().svcStart = now
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
		rel.sendAck(o.ext.relPkt, wire, true)
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
	o.ch.pending.Done()
	o.reqDone()
	o.win.opTerminal(o)
}

// opTerminal runs exactly once per op that passed issue-time
// validation, when it reaches its terminal state (ack delivered at the
// origin, abandoned by the transport, or dropped on credit timeout):
// it returns the flow-control credit, recycles the op's pooled
// buffer, and notifies the op observer. Runs in engine context.
func (g *winGlobal) opTerminal(o *rmaOp) {
	// The buffer recycles into the origin's pool, where it was drawn:
	// terminal state is reached in the origin's engine context, whose
	// pool is the only one legal to touch.
	or := g.rankOf(int(o.origin))
	if x := o.ext; x != nil && x.credit != nil {
		x.credit.release()
		x.credit = nil
	}
	if len(o.data) > opInline {
		or.pool.put(o.data)
	}
	o.data = nil
	if g.onOpDone != nil {
		g.onOpDone(int(o.origin), int(o.target), o.disp)
	}
	// Recycle the header last: putOp zeroes the op. Under a fault plan
	// recycling is disabled (packets hold op pointers past this point).
	or.putOp(o)
}

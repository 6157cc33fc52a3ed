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

// writesOrigin reports whether the op writes origin memory: a result
// comes back into the caller's buffer.
func (k OpKind) writesOrigin() bool {
	return k == KindGet || k == KindGetAcc || k == KindFetchOp || k == KindCAS
}

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
// first; the whole header stays within the 192-byte size class
// (TestRMAOpSize).
type rmaOp struct {
	win *winGlobal
	ch  *chanState // the origin's channel to the target: ack tracking, wire chain

	// link is the op's place in the one queue it is waiting in (see the
	// lifecycle table in DESIGN.md): the origin's freelist, the ops held
	// behind a pending lock grant (lockMsg), the channel's wire chain
	// (chanState.wireTail), the target's deferred or stalled AM list
	// (rankEngine.deferred, stalled) or its service backlog (sim.Server). link.At
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

// opExt is the part of an op only optional machinery uses: flow control,
// the reliable transport and the validator. It is allocated on first need
// and stays with the header across recycling.
type opExt struct {
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

// rmaCall is one RMA call as the caller made it: what the issue checks,
// and what a queued call keeps until the event loop issues it.
type rmaCall struct {
	kind   OpKind
	op     Op
	target int
	disp   int
	dt     Datatype
	data   []byte // origin payload: the caller's buffer, until snapshot
	dst    []byte // origin result destination, written at apply time
}

// newOp fetches a zeroed rmaOp from the issuing rank's freelist (or the
// heap when recycling is off) and fills it from call c.
func (w *Win) newOp(c *rmaCall) *rmaOp {
	o := w.r.getOp()
	o.kind, o.op, o.target, o.disp, o.dt = c.kind, c.op, int32(c.target), c.disp, c.dt
	o.data, o.dst = c.data, c.dst
	return o
}

// Put implements Window.
func (w *Win) Put(src []byte, target int, disp int, dt Datatype) {
	w.issue(&rmaCall{kind: KindPut, op: OpReplace, target: target, disp: disp, dt: dt, data: src}, nil)
}

// Get implements Window.
func (w *Win) Get(dst []byte, target int, disp int, dt Datatype) {
	w.issue(&rmaCall{kind: KindGet, op: OpNoOp, target: target, disp: disp, dt: dt, dst: dst}, nil)
}

// Accumulate implements Window.
func (w *Win) Accumulate(src []byte, target int, disp int, dt Datatype, op Op) {
	w.issue(&rmaCall{kind: KindAcc, op: op, target: target, disp: disp, dt: dt, data: src}, nil)
}

// GetAccumulate implements Window.
func (w *Win) GetAccumulate(src, result []byte, target int, disp int, dt Datatype, op Op) {
	w.issue(&rmaCall{kind: KindGetAcc, op: op, target: target, disp: disp, dt: dt, data: src, dst: result}, nil)
}

// FetchAndOp implements Window.
func (w *Win) FetchAndOp(src, result []byte, target int, disp int, b BasicType, op Op) {
	w.issue(&rmaCall{kind: KindFetchOp, op: op, target: target, disp: disp, dt: Scalar(b), data: src, dst: result}, nil)
}

// CompareAndSwap implements Window.
func (w *Win) CompareAndSwap(compare, origin, result []byte, target int, disp int, b BasicType) {
	w.issue(&rmaCall{kind: KindCAS, op: OpReplace, target: target, disp: disp, dt: Scalar(b), data: origin, dst: result}, compare)
}

// issue charges origin-side cost, checks the call, and either sends the
// op or queues it behind a pending lazy lock acquisition. c.data and cmp
// (the compare value of a CAS, nil otherwise) still alias the caller's
// buffers; issue snapshots both, so the caller owns them again as soon as
// the call returns. A queueable call returns at once and is issued by the
// event loop (see issue.go); the rest take the eager path below, on which
// every misuse panics.
func (w *Win) issue(c *rmaCall, cmp []byte) {
	r := w.r
	if r.issueQ.admit(w, c, cmp) {
		return
	}
	r.settle()
	r.engine.enterMPI()
	defer r.mpiLeave()
	r.proc.Advance(r.callCost() + r.issueCost())
	if msg := w.check(c, cmp, true); msg != "" {
		panic(msg)
	}
	var credit *creditChan
	if f := w.g.w.flow; f != nil {
		// Acquire a flow-control credit toward the target, blocking in
		// virtual time while the window is exhausted. We are inside an
		// MPI call here, so self-targeted AMs keep draining while the
		// proc is parked.
		credit = f.acquire(r, w.g.comm.ranks[c.target])
	}
	o := w.newOp(c)
	o.data = snapshot(r.pool, c.dt, c.data, cmp, &o.inl)
	if credit != nil {
		o.extra().credit = credit
	}
	w.post(o, w.callEpoch(c))
}

// check makes every test of call c (and of cmp, a CAS's compare value)
// that the issue makes before it commits the call, and returns the first
// that fails, "" when c may post; the issue panics with it. The eager
// issue checks right after the call's step, the issue queue when it
// admits the call (see issue.go). excuse lets a crashed target's empty
// region pass the bounds test.
func (w *Win) check(c *rmaCall, cmp []byte, excuse bool) string {
	g := w.g
	if err := c.dt.Validate(); err != nil {
		return err.Error()
	}
	t := c.target
	if t < 0 || t >= len(g.comm.ranks) {
		return fmt.Sprintf("mpi: window target %d out of range [0,%d)", t, len(g.comm.ranks))
	}
	reg := g.regions[t]
	// A target that crashed before it could expose this window has the
	// empty region a dead member contributes. A real origin cannot see
	// that: the operation goes on the wire, is never acknowledged, and
	// fails over to a surviving server once the detector confirms the
	// death. So the bounds check only the omniscient simulator could
	// perform is suppressed, and the reliable transport recovers the op.
	crashed := excuse && c.disp >= 0 && g.w.FaultsEnabled() && g.w.ranks[g.comm.ranks[t]].failed
	if (c.disp < 0 || c.disp+c.dt.Extent() > reg.n) && !crashed {
		return fmt.Sprintf("mpi: %v at disp %d extent %d outside %d-byte window of target %d",
			c.kind, c.disp, c.dt.Extent(), reg.n, t)
	}
	if c.data != nil && len(c.data) < c.dt.Size() || cmp != nil && len(cmp) < c.dt.Basic.Size() {
		return fmt.Sprintf("mpi: %v origin buffer shorter than its datatype", c.kind)
	}
	switch {
	case w.access != nil: // PSCW access epoch
		if !inGroup(w.access.group, t) {
			return fmt.Sprintf("mpi: PSCW op to target %d outside access group", t)
		}
	case w.fenceActive:
	case w.epochFlags(t)&epLocked == 0 && !w.lockAll: // passive target
		return fmt.Sprintf("mpi: %v to target %d without an epoch", c.kind, t)
	}
	return ""
}

// snapshot copies a call's packed payload out of the caller's buffer data
// and returns the copy: inl when it fits, else a pooled buffer that lives
// exactly until the op's terminal state (opTerminal), where it is
// recycled. A CAS moves one basic element, so its origin value and the
// compare value cmp share inl.
func snapshot(pool *bufPool, dt Datatype, data, cmp []byte, inl *[opInline]byte) []byte {
	if cmp != nil {
		copy(inl[opInline/2:], cmp[:dt.Basic.Size()])
	}
	if data == nil {
		return nil
	}
	n := dt.Size()
	buf := inl[:]
	if n > opInline {
		buf = pool.get(n)
	}
	return buf[:copy(buf, data[:n])]
}

// post is the part of the issue after the origin-side cost: the op
// passed check and carries its snapshotted payload, and ep is the epoch
// flags it was issued under (callEpoch). It joins the epoch, counts as
// outstanding, and goes on the wire or behind the channel's pending lock
// grant — requesting the lock first when it is the epoch's first touch of
// the target. The eager path runs it in the rank's process; for a queued
// op the event loop runs it at the same pop.
func (w *Win) post(op *rmaOp, ep uint8) {
	r := w.r
	target := int(op.target)
	op.win = w.g
	op.origin = int32(w.me)
	w.opSeq++
	if w.g.w.validator != nil {
		op.extra().seq = w.opSeq
	}
	r.stats[OpsIssued]++

	var queueOn *lockMsg
	switch {
	case w.access != nil: // PSCW access epoch
		op.pscw = true
		w.access.issued[target]++
		op.ch = w.channel(target)
		op.ch.lock.ep = ep
	case w.fenceActive:
		op.ch = w.channel(target)
		op.ch.lock.ep = ep
	default: // passive target
		ch := w.channel(target)
		op.excl = ep&epExcl != 0
		op.ch = ch
		if !ch.lock.requested {
			w.requestLock(target, ep)
		}
		if !ch.lock.granted.Done() {
			queueOn = &ch.lock
		}
	}

	// Count the op as outstanding at issue time, so that flushes and
	// fences also wait for operations still queued behind a pending
	// lazy lock acquisition.
	w.g.inflight.Add(1)
	op.ch.pending.Add(1)
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
	if eng.FastPathsDisabled() {
		eng.AtRun(arrival, op)
		return
	}
	// Wire chaining: channel arrivals are strictly monotone, so only the
	// channel's head op holds a queued event; later ops wait behind it
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
// transport, fast paths disabled).
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
	o.win.w.eng.AtRunReserved(next.link.At, next.link.Seq, next)
}

// --- Apply path (target side) ----------------------------------------

// apply mutates the target memory. Runs in engine context at the moment
// the op takes effect.
func (o *rmaOp) apply() {
	reg := o.win.regions[o.target]
	o.applied = true
	mem := reg.seg.data
	base := reg.off + o.disp
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
		p.sig.Broadcast()
	}
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
	o.apply()
	if v := o.win.w.validator; v != nil {
		v.recordApply(o, o.win.regions[o.target], o.disp, int(o.owner))
	}
	o.win.inflight.Done()
	o.ack()
}

// applyHardware is the NIC path: apply at arrival with no target CPU.
func (o *rmaOp) applyHardware(tr *Rank) {
	if o.applied {
		return
	}
	now := tr.eng.Now()
	o.link.At, o.owner = now, -1
	o.apply()
	tr.stats[HardwareOps]++
	tr.stats[BytesIn] += int64(o.bytes())
	if v := o.win.w.validator; v != nil {
		o.extra().svcStart = now
		v.recordApply(o, o.win.regions[o.target], o.disp, -1)
	}
	if t := o.win.w.tracer; t.Enabled() {
		t.RecordService(trace.Service{
			Rank: -1, Origin: o.win.comm.ranks[o.origin], Kind: o.kind.String(),
			Bytes: o.bytes(), Arrived: now, Start: now, End: now, Hardware: true,
		})
	}
	o.win.inflight.Done()
	o.ack()
}

// ack returns the completion (and result payload) to the origin. On the
// plain wire — fast paths on, no flow control, no op observer — the
// completion is unobservable until a flush or unlock waits for it (MPI-3
// passive target), so the ack is deferred at the channel instead of
// scheduled: its event seq is still reserved here, where AfterRun would
// take it (deferAck). Under a fault plan the same holds for the op's
// first ack whenever the injector leaves it alone (reliability.sendAck).
func (o *rmaOp) ack() {
	g := o.win
	originWorld := g.comm.ranks[o.origin]
	targetWorld := g.comm.ranks[o.target]
	tr := g.w.ranks[targetWorld]
	wire := tr.transferTo(originWorld, o.ackBytes())
	eng := tr.eng
	lazy := g.w.flow == nil && g.onOpDone == nil && !eng.FastPathsDisabled()
	if rel := g.w.rel; rel != nil {
		rel.sendAck(o.ext.relPkt, wire, true, lazy)
		return
	}
	if lazy {
		o.ch.deferAck(o, eng.Now().Add(wire), eng.ReserveSeq())
		return
	}
	o.phase = opPhaseAck
	eng.AfterRun(wire, o)
}

// ackDelivered lands the completion ack at the origin: the flush tracker
// releases and the op reaches its terminal state. Any result bytes are
// already in the origin's buffer (see apply).
func (o *rmaOp) ackDelivered() {
	ch := o.ch
	ch.pending.Done()
	if ch.lazyN > 0 && ch.pending.Waiting() {
		ch.settleAcks(o.win.w)
	}
	o.win.opTerminal(o)
}

// deferAck defers o's ack, due at (at, seq), at the channel. On the plain
// wire the op ends there and then: the payload goes back to the pool and
// the header to the freelist. Under a fault plan it lives on until the ack
// lands, since a duplicate arrival or a failover may still read it: the
// channel lists it (ch.acks, through its link, which holds the key) and
// its packet reads lazyAck until the ack lands (reliability.landed). If a
// drain already waits, the acks may be settled now.
func (ch *chanState) deferAck(o *rmaOp, at sim.Time, seq uint64) {
	g := o.win
	g.w.eng.Elide(at, seq)
	g.w.acksElided++
	if ch.lazyN == 0 || ch.lazyAt < at || ch.lazyAt == at && ch.lazySeq < seq {
		ch.lazyAt, ch.lazySeq = at, seq
	}
	ch.lazyN++
	if g.w.rel != nil {
		o.ext.relPkt.lazyAck = true
		o.link = sim.Link{At: at, Seq: seq}
		if ch.acks != nil { // a nil *rmaOp stored in the interface would not read as nil
			o.link.Next = ch.acks
		}
		ch.acks = o
	} else {
		g.opTerminal(o)
	}
	if ch.pending.Waiting() {
		ch.settleAcks(g.w)
	}
}

// settleAcks brings the channel's deferred acks home once every op on it
// is applied, as the eager schedule would: they land now, with no event,
// if the latest key has passed. Otherwise, on the plain wire, the channel
// is scheduled under that key, where the eager schedule pops the last ack,
// so the drain wakes at the same instant under the same seq; under a fault
// plan the latest ack becomes an event of its own again (releaseAck), and
// its landing settles the rest. Win.awaitSteps calls it before a drain
// waits, the ack paths while one does.
func (ch *chanState) settleAcks(w *World) {
	if ch.lazyN == 0 || ch.lazySet || ch.pending.Pending() != int(ch.lazyN) {
		return
	}
	if w.eng.Passed(ch.lazyAt, ch.lazySeq) {
		ch.landAcks()
		return
	}
	if ch.acks != nil {
		for o := ch.acks; ; o = o.next() {
			if o.link.At == ch.lazyAt && o.link.Seq == ch.lazySeq {
				ch.releaseAck(o)
				return
			}
		}
	}
	ch.lazySet = true
	w.acksElided--
	w.eng.AtRunReserved(ch.lazyAt, ch.lazySeq, ch)
}

// releaseAck takes the deferred ack of o, a fault-plan op whose key has
// not passed, off the channel and schedules it under that key as the
// pktAck event the eager schedule has there. The channel's latest key is
// recomputed from the acks still deferred.
func (ch *chanState) releaseAck(o *rmaOp) {
	var prev *rmaOp
	ch.lazyN--
	ch.lazyAt, ch.lazySeq = 0, 0
	for p := ch.acks; p != nil; p = p.next() {
		if p == o {
			if prev == nil {
				ch.acks = p.next()
			} else {
				prev.link.Next = p.link.Next
			}
			continue
		}
		if k := p.link; ch.lazyAt < k.At || ch.lazyAt == k.At && ch.lazySeq < k.Seq {
			ch.lazyAt, ch.lazySeq = k.At, k.Seq
		}
		prev = p
	}
	o.link.Next = nil
	pkt := o.ext.relPkt
	pkt.lazyAck = false
	w := o.win.w
	w.acksElided--
	w.eng.AtRunReserved(o.link.At, o.link.Seq, (*pktAck)(pkt))
}

// Step implements sim.Runner: the latest deferred ack's event, scheduled
// by settleAcks.
func (ch *chanState) Step() { ch.landAcks() }

// landAcks lands every deferred ack of the channel; under a fault plan
// that also settles each listed op's packet whose ack has not landed yet.
func (ch *chanState) landAcks() {
	n := ch.lazyN
	ch.lazyN, ch.lazySet = 0, false
	for o := ch.acks; o != nil; {
		next := o.next()
		o.link.Next = nil
		if pkt := o.ext.relPkt; pkt.lazyAck {
			pkt.st.rel.landAck(pkt)
		}
		o = next
	}
	ch.acks = nil
	ch.pending.DoneN(int(n))
}

// unlanded returns the ops on the channel whose acks have not landed: a
// deferred ack has once the latest key has passed, though no event marks
// it. (Before that the count includes every deferred ack.)
func (ch *chanState) unlanded(eng *sim.Engine) int {
	n := ch.pending.Pending()
	if ch.lazyN > 0 && eng.Passed(ch.lazyAt, ch.lazySeq) {
		n -= int(ch.lazyN)
	}
	return n
}

// opTerminal runs exactly once per op that passed issue-time
// validation, when it reaches its terminal state (ack delivered at the
// origin, or abandoned by the transport): it returns the flow-control credit, recycles the op's pooled
// buffer, and notifies the op observer. Runs in engine context. An op
// whose ack is deferred (deferAck) ends at its apply.
func (g *winGlobal) opTerminal(o *rmaOp) {
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

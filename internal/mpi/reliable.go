package mpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Reliable transport. When a world has a fault plan, every RMA request
// and point-to-point message travels as a sequence-numbered packet on a
// per-(window, origin, target) stream — the AM ordering unit MPI-3
// §11.7.1 requires for same-origin accumulates. The receiver accepts
// packets strictly in sequence order (holding out-of-order arrivals),
// which, together with the per-op applied flag, makes delivery
// exactly-once under drop, delay and duplication. Unacknowledged
// packets are retransmitted on a timeout with exponential backoff;
// when the failure detector declares a target dead, its streams fail
// over to a replacement chosen by the window's reroute hook (Casper's
// ghost rebinding), or the transport gives up on them and panics.
//
// Two deliberate simplifications exploit that this is a simulation:
//
//   - The sender can see whether the injector dropped a transmission,
//     so a timeout retransmits only genuinely lost packets; for live
//     in-flight ones it just re-arms. This keeps a zero-rate plan
//     bit-identical to no fault layer (no spurious retransmissions,
//     no perturbed counters).
//   - An op applied at a target that dies before its ack has already
//     left its result in the origin's buffer (rmaOp.apply writes it
//     there), so failover can synthesize the completion. This is the
//     durable operation journal a real implementation would have to
//     replicate; the simulator gets it for free.
//
// All reliability housekeeping (timers, duplicate arrivals,
// retransmissions, protocol acks) runs as background events, so it can
// never extend a run beyond what the application produced; the first
// transmission and first RMA ack reuse the regular event path of the
// fault-free runtime, at the exact times it would have used. Every one of
// these events is the packet itself (see pktRecv, pktAck, pktTimeout).
// A first RMA ack the injector leaves alone is, where no flow control or
// op observer watches the window, no event at all: it is deferred at the
// origin's channel like the plain wire's (sendAck, landed). Duplicate
// arrivals, retransmissions, the other acks and back-off timers are
// scheduled eagerly, one engine event each. The first-attempt
// retransmission timers — one per packet, nearly all of which pop only to
// find the packet acknowledged — are chained instead: their deadlines
// (now + rtoBase) are monotone in arming order, so they wait in one
// per-world FIFO linked through the packets, each under the event seq
// reserved when it was armed; only the head holds an engine event, and an
// entry whose packet is already acked or abandoned when its turn comes is
// dropped rather than scheduled (it could only have returned at timeout's
// first line). The executed timeline — every (time, seq) of every event
// that does anything — is the eager schedule's; a world with the fast
// paths off keeps the eager schedule and is the oracle for that claim.

// Default retransmission parameters.
const (
	defaultRTOBase     = 100 * sim.Microsecond
	defaultMaxAttempts = 25
	maxBackoffShift    = 6
)

// streamKey identifies one ordered packet stream. win is nil for
// point-to-point traffic; origin/target are world ranks.
type streamKey struct {
	win    *winGlobal
	origin int
	target int
}

// packet is one payload on a stream: exactly one of op, msg is set. It is
// also every event of its own life: the arrival at the destination, the
// ack back at the origin and the retransmission timer are the packet
// under three Runner types (pktRecv, pktAck, pktTimeout), so a duplicate
// arrival, a late ack and a timer can all be pending at once and none of
// them allocates. The first packet of an RMA op lives in the op's own
// allocation (Rank.getOp); failover and p2p packets are objects of their
// own.
type packet struct {
	st  *stream
	seq int64
	op  *rmaOp
	msg *inMsg

	// The packet's place in the world's timer chain (reliability.timerTail)
	// while chained is set: the packet armed behind it, and the (tAt, tSeq)
	// its timeout fires under. A packet has at most one timer pending — the
	// next is armed only as the previous fires — so one link is enough.
	tNext *packet
	tAt   sim.Time
	tSeq  uint64

	attempts  int32
	corrupt   bool // last data transmission corrupted by the injector
	dataLost  bool // last data transmission dropped by the injector
	ackLost   bool // last ack transmission dropped by the injector
	delivered bool // p2p: accepted into the destination mailbox
	acked     bool
	abandoned bool
	chained   bool // pending timer waits in the timer chain (else: its own event)
	lazyAck   bool // first ack deferred at the origin's channel, not landed yet (see landed)
}

// settled reports whether the packet reached a terminal state: nothing
// will ever be retransmitted, failed over or timed out on its behalf. A
// packet whose ack is deferred reads settled only once landed has seen the
// ack's key pass.
func (pkt *packet) settled() bool { return pkt.acked || pkt.abandoned }

// The three events of a packet. The type is the phase, so the same packet
// can be scheduled under several at once.
type (
	pktRecv    packet // a transmission reaches the destination
	pktAck     packet // an ack reaches the origin
	pktTimeout packet // the retransmission timer expires
)

func (p *pktRecv) Step()    { pkt := (*packet)(p); pkt.st.rel.receive(pkt) }
func (p *pktAck) Step()     { pkt := (*packet)(p); pkt.st.rel.deliverAck(pkt) }
func (p *pktTimeout) Step() { pkt := (*packet)(p); pkt.st.rel.timerFired(pkt) }

// wireBytes is the payload size charged for (re)transmission.
func (pkt *packet) wireBytes() int {
	if pkt.op != nil {
		return pkt.op.wireOutBytes()
	}
	return len(pkt.msg.data)
}

// stream is the sender+receiver state of one streamKey (one simulated
// address space holds both ends).
type stream struct {
	rel      *reliability
	key      streamKey
	nextSeq  int64
	expected int64
	held     map[int64]*packet // receiver: arrived out of order; made on first use

	// Sender: packets transmitted and not yet settled, in seq order from
	// unacked[head]; live counts them. Settled packets stay in place (nil'd
	// once they fall off the front) until the ones before them settle too,
	// so failover and credit return walk the slice in sequence order.
	unacked []*packet
	head    int
	live    int
}

// newPacket numbers pkt as the stream's next and lists it as
// unacknowledged. The list's array is reused: a settled prefix is closed
// up before the array would grow.
func (st *stream) newPacket(pkt *packet) *packet {
	pkt.st, pkt.seq = st, st.nextSeq
	st.nextSeq++
	if st.head > 0 && len(st.unacked) == cap(st.unacked) {
		n := copy(st.unacked, st.unacked[st.head:])
		clear(st.unacked[n:])
		st.unacked, st.head = st.unacked[:n], 0
	}
	st.unacked = append(st.unacked, pkt)
	st.live++
	return pkt
}

// settle accounts for one listed packet having just been acked or
// abandoned, and trims the settled prefix of the list.
func (st *stream) settle() {
	if st.live--; st.live == 0 {
		clear(st.unacked)
		st.unacked, st.head = st.unacked[:0], 0
		return
	}
	for st.unacked[st.head].settled() {
		st.unacked[st.head] = nil
		st.head++
	}
}

// pending returns the unsettled packets in sequence order. The slice is a
// view: settling a packet while walking it may nil entries, never move
// them.
func (st *stream) pending() []*packet { return st.unacked[st.head:] }

// reliability is the world's reliable-transport state.
type reliability struct {
	w           *World
	streams     map[streamKey]*stream
	order       []*stream // creation order, for deterministic failover
	rtoBase     sim.Duration
	maxAttempts int

	// timerTail is the last packet of the timer chain (see the package
	// comment and armTimer); nil when no chained timer is pending. The
	// chain's head is the one whose pktTimeout event is in the engine.
	timerTail *packet
	timers    timerCensus
}

// timerCensus counts what became of the retransmission timers: every armed
// timer either fired (noop of them only to find the packet settled), was
// dropped from the chain unscheduled, or was still pending when the world
// ended.
type timerCensus struct {
	armed, fired, noop, dropped int64
}

func newReliability(w *World) *reliability {
	return &reliability{
		w:           w,
		streams:     map[streamKey]*stream{},
		rtoBase:     defaultRTOBase,
		maxAttempts: defaultMaxAttempts,
	}
}

func (rel *reliability) stream(key streamKey) *stream {
	st, ok := rel.streams[key]
	if !ok {
		st = &stream{rel: rel, key: key}
		rel.streams[key] = st
		rel.order = append(rel.order, st)
	}
	return st
}

// relStream returns the stream from this handle to comm rank target.
func (w *Win) relStream(rel *reliability, target int) *stream {
	return rel.stream(streamKey{win: w.g, origin: w.r.id, target: w.g.comm.ranks[target]})
}

// --- Send side --------------------------------------------------------

// sendOp puts an RMA op on its stream st. arrival is the FIFO-adjusted
// arrival time Win.send computed — the first transmission lands exactly
// when the fault-free runtime would deliver it.
func (rel *reliability) sendOp(op *rmaOp, st *stream, arrival sim.Time) {
	pkt := op.ext.relPkt // allocated with the op, see Rank.getOp
	pkt.op = op
	st.newPacket(pkt)
	if rel.w.HealthFailed(st.key.target) && !rel.w.ranks[st.key.target].down {
		// The target was already confirmed dead when this op issued —
		// the origin's goroutine ran ahead of the detection sweep in
		// virtual time, so its routing predates the failure verdict.
		// The stream's drain has already happened (onDeath); a packet
		// parked here would wait out a full RTO and join the failover
		// stream behind younger same-origin ops, breaking accumulate
		// issue order. Fail it over right now instead.
		rel.failoverPacket(pkt)
		return
	}
	rel.transmit(pkt, arrival, true)
}

// sendMsg puts a point-to-point message on its stream.
func (rel *reliability) sendMsg(r *Rank, destWorld int, msg *inMsg, arrival sim.Time) {
	st := rel.stream(streamKey{origin: r.id, target: destWorld})
	rel.transmit(st.newPacket(&packet{msg: msg}), arrival, true)
}

// transmit puts one packet on the wire, consulting the injector, and
// arms the retransmission timer. first marks the initial transmission,
// whose undisturbed delivery uses the regular event path for exact
// parity with the fault-free runtime.
func (rel *reliability) transmit(pkt *packet, arrival sim.Time, first bool) {
	pkt.attempts++
	pkt.dataLost = false
	eng := rel.w.eng
	dec := rel.w.inj.Transmission()
	// Wire corruption: the payload arrives marked, and the receiver drops
	// it.
	pkt.corrupt = dec.Corrupt
	if dec.Drop {
		pkt.dataLost = true
	} else {
		at := arrival.Add(dec.Extra)
		if first && dec.Extra == 0 {
			eng.AtRun(at, (*pktRecv)(pkt))
		} else {
			eng.AtBGRun(at, (*pktRecv)(pkt))
		}
		if dec.Dup {
			eng.AtBGRun(at.Add(1), (*pktRecv)(pkt))
		}
	}
	rel.armTimer(pkt)
}

// armTimer starts the packet's retransmission timer. A first-attempt
// timer joins the timer chain under the event seq an eager schedule would
// give it here; a back-off timer, and every timer of a world with the
// fast paths off, is its own engine event.
func (rel *reliability) armTimer(pkt *packet) {
	shift := pkt.attempts - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	eng := rel.w.eng
	rel.timers.armed++
	if shift > 0 || eng.FastPathsDisabled() {
		eng.AfterBGRun(rel.rtoBase<<uint(shift), (*pktTimeout)(pkt))
		return
	}
	pkt.tAt, pkt.tSeq, pkt.chained = eng.Now().Add(rel.rtoBase), eng.ReserveSeq(), true
	if tail := rel.timerTail; tail != nil {
		tail.tNext = pkt
		rel.timerTail = pkt
		return
	}
	rel.timerTail = pkt
	eng.AtBGRunReserved(pkt.tAt, pkt.tSeq, (*pktTimeout)(pkt))
}

// timerFired runs as a packet's timer event pops. The chain's head first
// hands the engine event to its successor: the next chained timer whose
// packet is not settled yet (one settled by now would pop as a no-op, so it
// is never scheduled).
func (rel *reliability) timerFired(pkt *packet) {
	if pkt.chained {
		next := pkt.tNext
		pkt.tNext, pkt.chained = nil, false
		for next != nil && rel.landed(next) {
			rel.timers.dropped++
			next, next.tNext, next.chained = next.tNext, nil, false
		}
		if next != nil {
			rel.w.eng.AtBGRunReserved(next.tAt, next.tSeq, (*pktTimeout)(next))
		} else {
			rel.timerTail = nil
		}
	}
	rel.timers.fired++
	rel.timeout(pkt)
}

// timeout decides what to do about a still-unacknowledged packet.
func (rel *reliability) timeout(pkt *packet) {
	if rel.landed(pkt) {
		rel.timers.noop++
		return
	}
	w := rel.w
	st := pkt.st
	dst := w.ranks[st.key.target]
	origin := w.ranks[st.key.origin]
	switch {
	case dst.down:
		// Down-recoverable peer: hold fire until the revival; the
		// retransmission then delivers in sequence order, so nothing in
		// flight to a recovering rank is lost or reordered. (Checked
		// before the failover case — a confirmed down rank is
		// health-failed too, but must not be failed over.)
		rel.armTimer(pkt)
	case w.HealthFailed(st.key.target) || (dst.failed && !w.healthTracked(st.key.target)):
		// Peer declared dead (or, when untracked, known dead to the
		// omniscient simulator): fail the whole stream over, in
		// sequence order, so accumulate ordering survives the move.
		origin.stats[RetryTimeouts]++
		rel.failoverStream(st)
	case dst.failed:
		// Dead but not yet detected: hold fire until the failure
		// detector rules, rather than hammering a corpse.
		rel.armTimer(pkt)
	case pkt.dataLost || pkt.ackLost:
		origin.stats[RetryTimeouts]++
		if int(pkt.attempts) >= rel.maxAttempts {
			rel.abandon(pkt, fmt.Sprintf("message to rank %d lost after %d attempts", st.key.target, pkt.attempts))
			return
		}
		origin.stats[Retransmits]++
		pkt.ackLost = false
		wire := origin.transferTo(st.key.target, pkt.wireBytes())
		rel.transmit(pkt, w.eng.Now().Add(wire), false)
	default:
		// In flight or in service at a live target; await the ack.
		rel.armTimer(pkt)
	}
}

// --- Receive side -----------------------------------------------------

// receive runs at the destination when a transmission arrives:
// in-sequence packets dispatch (and release any held successors);
// out-of-sequence ones are held; duplicates are suppressed, re-acking
// completed exchanges whose ack was lost.
func (rel *reliability) receive(pkt *packet) {
	st := pkt.st
	dst := rel.w.ranks[st.key.target]
	rel.landed(pkt) // a deferred ack due by now has landed, as its event would have
	if pkt.abandoned {
		return
	}
	if dst.failed {
		// Swallowed with the dead destination; sender-side timeout and
		// health detection handle recovery.
		return
	}
	if dst.down {
		// Down-recoverable destination: the endpoint is gone for the
		// duration; drop, and let the sender's timeout redeliver after
		// the revival.
		pkt.dataLost = true
		return
	}
	if pkt.corrupt {
		// Corrupted on the wire: drop it exactly like a loss — the
		// sender's timeout sees dataLost and retransmits it.
		dst.stats[CorruptDropped]++
		pkt.dataLost = true
		return
	}
	if pkt.seq > st.expected {
		if st.held[pkt.seq] == pkt {
			// duplicate of a held packet
			dst.stats[DupsSuppressed]++
			return
		}
		if st.held == nil {
			st.held = map[int64]*packet{}
		}
		st.held[pkt.seq] = pkt
		return
	}
	if pkt.seq < st.expected {
		// Duplicate of an already-accepted packet: exactly-once.
		dst.stats[DupsSuppressed]++
		rel.reAck(pkt)
		return
	}
	st.expected++
	rel.dispatch(pkt)
	for {
		next, ok := st.held[st.expected]
		if !ok {
			break
		}
		delete(st.held, st.expected)
		st.expected++
		rel.dispatch(next)
	}
}

// dispatch hands an accepted packet to the destination runtime: the
// mailbox for p2p, the NIC or the target progress engine for RMA.
func (rel *reliability) dispatch(pkt *packet) {
	w := rel.w
	dst := w.ranks[pkt.st.key.target]
	if pkt.msg != nil {
		pkt.delivered = true
		dst.mailbox.arrive(pkt.msg)
		rel.sendP2PAck(pkt)
		return
	}
	op := pkt.op
	if op.applied {
		// Already applied through a reroute; nothing to do (the
		// rerouted copy acks).
		return
	}
	if op.hardwareEligible() {
		op.applyHardware(dst)
		return
	}
	op.link.At = w.eng.Now()
	dst.engine.deliver(op)
}

// reAck re-sends the acknowledgment for a duplicate of a completed
// exchange (the original ack was lost).
func (rel *reliability) reAck(pkt *packet) {
	if pkt.acked {
		return
	}
	if pkt.op != nil && pkt.op.applied {
		rel.sendAck(pkt, rel.ackWire(pkt), false, false)
	} else if pkt.msg != nil && pkt.delivered {
		rel.sendP2PAck(pkt)
	}
	// Otherwise the original is still queued for service and will ack
	// when it completes.
}

// ackWire is the target->origin wire time of the packet's ack.
func (rel *reliability) ackWire(pkt *packet) sim.Duration {
	n := 16
	if pkt.op != nil {
		n = pkt.op.ackBytes()
	}
	return rel.w.ranks[pkt.st.key.target].transferTo(pkt.st.key.origin, n)
}

// sendAck carries an RMA completion back to the origin. first marks
// the ack generated by the op's (first) apply, which uses the regular
// event path at the exact time the fault-free runtime would; lazy, that
// such an ack may instead be deferred at the origin's channel (rmaOp.ack)
// when the injector neither drops, delays nor duplicates it: it reserves
// its seq here, where AfterRun would take it, and lands with no event of
// its own (chanState.deferAck, landed).
func (rel *reliability) sendAck(pkt *packet, wire sim.Duration, first, lazy bool) {
	dec := rel.w.inj.Transmission()
	if dec.Drop {
		pkt.ackLost = true
		return
	}
	eng := rel.w.eng
	switch {
	case first && dec.Extra == 0 && !dec.Dup && lazy:
		op := pkt.op
		op.ch.deferAck(op, eng.Now().Add(wire), eng.ReserveSeq())
	case first && dec.Extra == 0:
		eng.AfterRun(wire, (*pktAck)(pkt))
	default:
		eng.AfterBGRun(wire+dec.Extra, (*pktAck)(pkt))
	}
	if dec.Dup {
		eng.AfterBGRun(wire+dec.Extra+1, (*pktAck)(pkt))
	}
}

// sendP2PAck acknowledges a delivered p2p packet (protocol-internal;
// the application-level eager send completed at issue).
func (rel *reliability) sendP2PAck(pkt *packet) {
	dec := rel.w.inj.Transmission()
	if dec.Drop {
		pkt.ackLost = true
		return
	}
	wire := rel.ackWire(pkt)
	rel.w.eng.AfterBGRun(wire+dec.Extra, (*pktAck)(pkt))
	if dec.Dup {
		rel.w.eng.AfterBGRun(wire+dec.Extra+1, (*pktAck)(pkt))
	}
}

// deliverAck lands an ack at the origin: completes the op's
// origin-side bookkeeping exactly once (duplicate acks are no-ops).
func (rel *reliability) deliverAck(pkt *packet) {
	if rel.landed(pkt) {
		return
	}
	if pkt.lazyAck {
		// Every other ack of a packet is sent after its first and crosses
		// the same wire, and a failover follows the target's death, which
		// released the deferred ack (releaseAcks): none can land first.
		panic(fmt.Sprintf("mpi: an ack of packet %d landed before its deferred first ack", pkt.seq))
	}
	pkt.acked = true
	pkt.st.settle()
	if op := pkt.op; op != nil {
		ch := op.ch
		ch.pending.Done()
		if ch.lazyN > 0 && ch.pending.Waiting() {
			ch.settleAcks(rel.w)
		}
		op.win.opTerminal(op)
	}
}

// landed reports whether pkt has settled, first landing its deferred ack
// (lazyAck) if the ack's key has passed: whatever reads a packet's state
// calls it, and so sees the packet as the eager schedule, which pops that
// ack as an event of its own, has it at this instant.
func (rel *reliability) landed(pkt *packet) bool {
	if pkt.lazyAck {
		if op := pkt.op; rel.w.eng.Passed(op.link.At, op.link.Seq) {
			rel.landAck(pkt)
		}
	}
	return pkt.settled()
}

// landAck lands pkt's deferred ack: what deliverAck does but for the
// channel's count, which the channel settles (chanState.landAcks).
func (rel *reliability) landAck(pkt *packet) {
	pkt.lazyAck = false
	pkt.acked = true
	pkt.st.settle()
	op := pkt.op
	op.win.opTerminal(op)
}

// releaseAcks runs as rank worldRank dies: every ack it deferred becomes
// what the eager schedule has of it — landed if its key has passed, else
// an event of its own under that key (chanState.releaseAck) — as killRank
// releases the rank's other lists. What follows the death (failover's
// synthesized completions, the acks' own pops) then runs on the eager
// path.
func (rel *reliability) releaseAcks(worldRank int) {
	for _, st := range rel.order {
		if st.key.target != worldRank || st.key.win == nil {
			continue
		}
		for _, pkt := range st.pending() {
			if pkt != nil && pkt.lazyAck && !rel.landed(pkt) {
				pkt.op.ch.releaseAck(pkt.op)
			}
		}
	}
}

// --- Failure handling -------------------------------------------------

// onDeath is the death hook: fail over every stream aimed at the dead
// rank, eagerly rerouting unacknowledged packets in sequence order. A
// down-recoverable rank is not failed over — its packets are held for
// redelivery after the revival — but the flow-control credits its
// in-flight ops hold are returned eagerly, so no origin spends the
// whole downtime starved of credits it can never get back. (Ops in
// flight *from* the down rank need no cancellation: their acks land in
// shared bookkeeping and the frozen origin consumes them on thaw.)
func (rel *reliability) onDeath(worldRank int) {
	if rel.w.ranks[worldRank].down {
		rel.returnCredits(worldRank)
		return
	}
	for _, st := range rel.order {
		if st.key.target == worldRank {
			rel.failoverStream(st)
		}
	}
}

// returnCredits eagerly releases the flow-control credit of every
// unacknowledged op in flight to the rank, in stream creation and
// sequence order (deterministic wake order for parked origins). Each
// op's credit is nil'd so its eventual terminal state cannot release
// it a second time.
func (rel *reliability) returnCredits(worldRank int) {
	for _, st := range rel.order {
		if st.key.target != worldRank {
			continue
		}
		for _, pkt := range st.pending() {
			if pkt.settled() {
				continue
			}
			if op := pkt.op; op != nil && op.ext.credit != nil {
				op.ext.credit.release()
				op.ext.credit = nil
			}
		}
	}
}

// failoverStream fails over the stream's unsettled packets in sequence
// order. Each one settles as it goes (rerouted onto another stream,
// completed or abandoned), which trims the list under the walk.
func (rel *reliability) failoverStream(st *stream) {
	for _, pkt := range st.pending() {
		if pkt != nil {
			rel.failoverPacket(pkt)
		}
	}
}

// failoverPacket recovers one unacknowledged packet whose target died.
func (rel *reliability) failoverPacket(pkt *packet) {
	if rel.landed(pkt) {
		return
	}
	w := rel.w
	if pkt.msg != nil {
		// P2p to a dead process is silently dropped (e.g. the shutdown
		// fan-out Finalize sends to already-dead ghosts); never fatal.
		pkt.abandoned = true
		pkt.st.settle()
		w.p2pLost++
		return
	}
	op := pkt.op
	if op.applied {
		// Applied before the target died; only the ack was lost.
		// Synthesize the completion (see the journal note in the
		// package comment).
		rel.deliverAck(pkt)
		return
	}
	g := op.win
	if g.reroute == nil {
		rel.abandon(pkt, fmt.Sprintf("target rank %d failed with no failover route", pkt.st.key.target))
		return
	}
	newTarget, ok := g.reroute(int(op.origin), int(op.target), op.disp)
	if !ok || g.comm.ranks[newTarget] == pkt.st.key.target {
		rel.abandon(pkt, fmt.Sprintf("target rank %d failed with no surviving replacement", pkt.st.key.target))
		return
	}
	origin := w.ranks[pkt.st.key.origin]
	origin.stats[Reroutes]++
	if t := w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "reroute", Rank: pkt.st.key.target,
			Peer: g.comm.ranks[newTarget], At: w.eng.Now()})
	}
	pkt.abandoned = true
	pkt.st.settle()
	op.target = int32(newTarget)
	ns := rel.stream(streamKey{win: g, origin: pkt.st.key.origin, target: g.comm.ranks[newTarget]})
	npkt := ns.newPacket(&packet{op: op})
	op.ext.relPkt = npkt
	wire := origin.transferTo(ns.key.target, op.wireOutBytes())
	rel.transmit(npkt, w.eng.Now().Add(wire), false)
}

// abandon gives up on a packet: release the origin-side completion so
// flushes do not hang, then panic with the loss.
func (rel *reliability) abandon(pkt *packet, msg string) {
	pkt.abandoned = true
	pkt.st.settle()
	origin := rel.w.ranks[pkt.st.key.origin]
	origin.stats[Abandoned]++
	if t := rel.w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "abandon", Rank: pkt.st.key.target,
			Peer: pkt.st.key.origin, At: rel.w.eng.Now()})
	}
	if op := pkt.op; op != nil {
		op.win.inflight.Done()
		op.ch.pending.Done()
		op.win.opTerminal(op)
	} else {
		rel.w.p2pLost++
	}
	panic("mpi: " + msg)
}

package mpi

import "repro/internal/sim"

// The issue queue lets an origin issue RMA operations without a coroutine
// switch per call. Eagerly, every Put, Get or accumulate parks its rank on
// the call's [callCost, issueCost] chain (sim.Proc.AdvanceChain) and is
// switched back in only to run the rest of Win.issue: the send, the lock
// request, the pending count. A queueable call instead admits the call at
// call time — Win.check has passed, the payload is snapshotted — and
// returns without parking; the event loop runs the rest of the issue
// itself when the chain's last step pops (sim.Proc.Serve), then enters MPI
// for the next queued call and starts its chain. The rank is switched in
// only once its queue is empty. An Acquire of a lock already granted
// queues the same way: only its MPI entry is left to do.
//
// Every step is the event it is eagerly, under the same seq, and the
// continuation runs the statements the rank would have run at that pop, in
// the same order, so the timeline is the eager one event for event. What
// keeps it so is the settle rule: a rank with calls queued has not reached
// the time its code runs at, so every other MPI entry point (mpiEnter and
// the direct enterMPI callers), Now, Compute, Request.Done, window
// allocation and the end of the process first park until the queue drains
// (Rank.settle), and resume at exactly the pop where the eager rank would
// have been switched in. mpiEnter and Compute queue their own first step —
// the call cost, the computation — behind the calls they settle, so the
// rank parks once for both. A park reached any other way with calls queued
// panics (sim.Proc.park).

// issueQueueCap bounds the items a rank may have queued (a call, or the
// lead step in front of one): the next call settles first. A queued call
// keeps its arguments and payload snapshot in its item and takes its op
// header from the freelist only when it is issued, at the pop where the
// eager rank takes it, so queueing allocates no header the eager schedule
// does not. What the bound trades is the queue's own block (176-byte
// items, about 6 KB per queueing rank) against switches: 32 is the
// smallest power of two that holds fig5a -quick to 0.2 switches per RMA
// op (EXPERIMENTS.md, "Issue without switching").
const issueQueueCap = 32

// itemKind is what a queued item does once the event loop reaches it.
type itemKind uint8

const (
	itemAdvance itemKind = iota // [d] outside MPI: a lead step (LeadIssue), a settling Compute
	itemOp                      // MPI entry, [callCost, issueCost], post, MPI exit: an RMA call
	itemCall                    // MPI entry, [callCost], MPI exit: a granted Acquire, a settling mpiEnter
)

// issueItem is one queued item.
type issueItem struct {
	kind itemKind
	d    sim.Duration   // itemAdvance: the step
	w    *Win           // itemOp: the handle issuing the call
	call rmaCall        // itemOp: the admitted call; call.data is its payload snapshot
	inl  [opInline]byte // itemOp: the snapshot when it fits, and a CAS's compare value
}

// issueQueue is a rank's queued items, items[head:] in call order. The
// rank appends only while it runs and the event loop consumes only while
// the rank is parked in settle, so the rank always finds it empty when it
// is switched back in.
type issueQueue struct {
	r     *Rank
	items []issueItem
	head  int
	lead  sim.Duration // charged in front of the next op (see LeadIssue)
	mark  sim.Duration // the rank's stolen time when the last itemAdvance started
}

// QueuesIssue reports whether the rank's RMA calls may wait in its issue
// queue: the fast paths are on and the world has no fault plan and no
// flow control, whose issue paths park or depend on what other ranks'
// events change.
func (r *Rank) QueuesIssue() bool { return r.w.queueIssue }

// LeadIssue charges d of origin-side work in front of the rank's next RMA
// operation, on any of its windows: as a step queued in front of that call
// when the call is queued, as an advance before it otherwise. Either way
// the rank spends d outside MPI and then enters MPI for the call, exactly
// as Advance(d) followed by the call would. Casper charges its redirect
// overhead this way.
func (r *Rank) LeadIssue(d sim.Duration) { r.issueQ.lead += d }

// settle parks the rank until every queued call has been issued (see the
// settle rule above).
func (r *Rank) settle() { r.proc.Settle() }

// reserve makes room for n more items, settling first when the queue
// lacks it, and reports whether the queue is idle: then nothing is in
// flight, and the caller starts what it queues (run) at once, as the
// eager rank would start the call now.
func (q *issueQueue) reserve(n int) (idle bool) {
	if len(q.items)+n > issueQueueCap {
		q.r.settle()
	}
	if q.items == nil {
		q.items = make([]issueItem, 0, issueQueueCap+1) // +1: the settling call's item
	}
	return len(q.items) == 0
}

// admit queues call c on handle w and reports true, or reports false,
// having done nothing, when c must take the eager path: the world does not
// queue, the window is dynamic, the call is request-based, check fails
// (the eager path then raises it at its usual instant), or the call would
// first-touch a passive target's lock, whose request is issue work the
// queue leaves to the eager path. cmp is the compare value of a CAS, nil
// otherwise. check's verdict at admission holds when the event loop posts
// the call: only the rank's own later calls could change what it reads,
// and those settle first.
func (q *issueQueue) admit(w *Win, c *rmaCall, cmp []byte) bool {
	if !w.g.w.queueIssue || w.g.dynamic || c.req != nil {
		return false
	}
	if msg, _ := w.check(c, cmp); msg != "" {
		return false
	}
	if w.access == nil && !w.fenceActive {
		if ch := w.lookupChannel(c.target); ch == nil || !ch.lock.requested {
			return false
		}
	}
	n := 1
	if q.lead != 0 {
		n++
	}
	idle := q.reserve(n)
	if q.lead != 0 {
		q.items = append(q.items, issueItem{kind: itemAdvance, d: q.lead})
		q.lead = 0
	}
	q.items = append(q.items, issueItem{kind: itemOp, w: w, call: *c})
	it := &q.items[len(q.items)-1]
	it.call.data = snapshot(q.r.pool, c.dt, c.data, cmp, &it.inl)
	if idle {
		q.run()
	}
	return true
}

// call queues a call that has nothing to do but its MPI entry: an Acquire
// of a lock already granted.
func (q *issueQueue) call() {
	idle := q.reserve(1)
	q.items = append(q.items, issueItem{kind: itemCall})
	if idle {
		q.run()
	}
}

// settleWith queues it, the first step of a call that must settle, behind
// the queued items, and parks until the event loop has run them and it:
// one switch where settling and then taking the step would cost two. It
// reports false, doing nothing, when the queue is empty.
func (q *issueQueue) settleWith(it issueItem) bool {
	if len(q.items) == 0 {
		return false
	}
	q.items = append(q.items, it)
	q.r.settle()
	return true
}

// run starts the queued items from head on, in order, until one has a
// chain step pending (true) or the queue is empty (false).
func (q *issueQueue) run() bool {
	for ; q.head < len(q.items); q.head++ {
		if q.start(&q.items[q.head]) {
			return true
		}
		q.finish(&q.items[q.head])
	}
	clear(q.items)
	q.items, q.head = q.items[:0], 0
	return false
}

// Continue implements sim.Continuation: the chain of the item at head
// ended.
func (q *issueQueue) Continue() bool {
	q.finish(&q.items[q.head])
	q.head++
	return q.run()
}

// start does what the eager rank does on reaching it — enters MPI and
// starts its chain — and reports whether a chain step is pending.
func (q *issueQueue) start(it *issueItem) bool {
	r := q.r
	switch it.kind {
	case itemAdvance:
		q.mark = r.engine.stolen
		return r.proc.Serve(q, it.d)
	case itemOp:
		r.engine.enterMPI()
		return r.proc.Serve(q, r.callCost(), r.issueCost())
	default: // itemCall
		r.engine.enterMPI()
		return r.proc.Serve(q, r.callCost())
	}
}

// finish does what the eager rank does when it is switched back in at the
// end of its chain: posts the op of an RMA call and leaves MPI.
func (q *issueQueue) finish(it *issueItem) {
	switch it.kind {
	case itemOp:
		o := it.w.newOp(&it.call)
		o.inl = it.inl
		if n := len(o.data); o.data != nil && n <= opInline {
			o.data = o.inl[:n] // the snapshot moves with the header
		}
		it.w.post(o)
		q.r.mpiLeave()
	case itemCall:
		q.r.mpiLeave()
	}
}

package mpi

import "repro/internal/sim"

// The issue queue lets an origin make RMA and passive-target
// synchronization calls without a coroutine switch per call. Eagerly, every
// Put, Get or accumulate parks its rank for the call's one step of
// callCost+issueCost (sim.Proc.Advance) and is switched back in only to run
// the rest of Win.issue: the send, the lock request, the pending count.
// Every Lock, Unlock, Flush or Acquire parks on its entry cost (a LockEach
// or UnlockEach on the sum of the entry costs it owes) and again on each
// lock grant and remote completion it waits for. A queued call instead is
// admitted at call time — its checks have passed, its payload is
// snapshotted, the epoch flags it changes are changed — and returns without
// parking. The event loop runs the rest itself: when the call's step pops
// (sim.Proc.Serve) or the awaited completion wakes the rank
// (sim.Completion.Serve), it runs what the rank would have run at that pop,
// then goes on with the next queued call. The rank is switched in only once
// its queue is empty.
//
// Every step and wake-up is the event it is eagerly, under the same seq,
// and the continuation runs the statements the rank would have run at that
// pop, in the same order, so the timeline is the eager one event for event.
// Two rules keep it so.
//
// The settle rule: a rank with calls queued has not reached the time its
// code runs at, so every other MPI entry point (mpiEnter and the direct
// enterMPI callers), Now, Compute, Request.Done, window allocation and the
// end of the process first park until the queue drains (Rank.settle), and
// resume at exactly the pop where the eager rank would have been switched
// in. mpiEnter and Compute queue their own first step — the call cost, the
// computation — behind the calls they settle, so the rank parks once for
// both. A park reached any other way with calls queued panics
// (sim.Proc.park). A completion call (Flush, FlushAll, Unlock, UnlockAll)
// whose return lets the caller read what its ops changed — one of them
// writes origin memory or targets the caller (see Win.HoldCompletion) — is queued and
// then settles, which returns at the eager instant.
//
// The state rule: the epoch flags (Win.epoch, Win.lockAll) are
// process-side. Calls update them when they are made, in call order, so
// every misuse check sees the effect of every call before it; a misused
// call takes the eager path (settle, then run in the process), which
// panics with the misuse at its usual instant. Channel and lock state
// (Win.chans) is engine-side: only the queued calls touch it, when the
// event loop runs them, and what they need of the flags travels with them
// (issueItem.ep) or on the channel (lockMsg.ep).

// issueQueueCap bounds the items a rank may have queued (a call, or the
// lead step in front of one): the next call settles first. A queued call
// keeps its arguments and payload snapshot in its item and takes its op
// header from the freelist only when it is issued, at the pop where the
// eager rank takes it, so queueing allocates no header the eager schedule
// does not. What the bound trades is the queue's own block (176-byte
// items, about 6 KB per queueing rank) against switches: 32 is the
// smallest power of two that holds fig5a -quick to 0.2 switches per RMA
// op, and 128 gains nothing on wide worlds (EXPERIMENTS.md, "Issue without
// switching" and "Served passive-target epochs").
const issueQueueCap = 32

// itemKind is what a queued item does once the event loop reaches it.
type itemKind uint8

const (
	itemAdvance itemKind = iota // [d] outside MPI: a lead step (LeadIssue), a settling Compute
	itemOp                      // MPI entry, [callCost+issueCost], post, MPI exit: an RMA call
	itemCall                    // MPI entry, [callCost], MPI exit: LockAll, a settling mpiEnter

	// The synchronization calls (epoch.go, Win.sync). LockEach and
	// UnlockEach owe their entry costs and pay them inside; the others
	// start as itemCall does.
	itemLock
	itemUnlock
	itemUnlockAll
	itemFlush
	itemFlushAll
	itemAcquire
)

// issueItem is one queued item.
type issueItem struct {
	kind  itemKind
	stage syncStage      // synchronization items: where the item resumes
	ep    uint8          // itemOp, itemLock, itemAcquire: the epoch flags admitted with the call
	pos   int32          // synchronization items: the target or channel reached
	d     sim.Duration   // itemAdvance: the step
	w     *Win           // the handle making the call (none for itemAdvance, itemCall)
	call  rmaCall        // itemOp: the admitted call, call.data its payload snapshot; a synchronization call on one target: call.target
	inl   [opInline]byte // itemOp: the snapshot when it fits, and a CAS's compare value
}

// issueQueue is a rank's queued items, items[head:] in call order. The
// rank appends only while it runs and the event loop consumes only while
// the rank is parked in settle, so the rank always finds it empty when it
// is switched back in.
type issueQueue struct {
	r     *Rank
	items []issueItem
	lists [][]int // lists[i]: the targets of items[i], a LockEach or UnlockEach (nil: call.target alone)
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
// operation or LockEach, on any of its windows: as a step queued in front
// of that call when the call is queued, as an advance before it otherwise.
// Either way the rank spends d outside MPI and then enters MPI for the
// call, exactly as Advance(d) followed by the call would. Casper charges
// its redirect overhead this way.
func (r *Rank) LeadIssue(d sim.Duration) { r.issueQ.lead += d }

// settle parks the rank until every queued call has been issued (see the
// settle rule above).
func (r *Rank) settle() { r.proc.Settle() }

// settleLead settles, then charges the lead step as an advance: the eager
// path of a call that a lead step may precede.
func (q *issueQueue) settleLead() {
	q.r.settle()
	if d := q.lead; d != 0 {
		q.lead = 0
		q.r.proc.Advance(d)
	}
}

// serves reports whether synchronization calls on w may be queued: the
// rank queues calls, and the window is not kept eager (Win.SyncInProcess).
func (q *issueQueue) serves(w *Win) bool {
	return q.r.w.queueIssue && !w.g.eagerSync
}

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

// queue appends it behind the lead step, if one is owed, and returns its
// index and whether the queue was idle; the caller completes the item and
// then, if it was, starts the queue (run).
func (q *issueQueue) queue(it issueItem) (i int, idle bool) {
	n := 1
	if q.lead != 0 {
		n++
	}
	idle = q.reserve(n)
	if q.lead != 0 {
		q.items = append(q.items, issueItem{kind: itemAdvance, d: q.lead})
		q.lead = 0
	}
	q.items = append(q.items, it)
	return len(q.items) - 1, idle
}

// admit queues call c on handle w and reports true, or reports false,
// having done nothing, when c must take the eager path: the world does not
// queue, or check fails (the eager path then panics at its usual instant).
// cmp is the compare value of a CAS, nil otherwise. check's verdict at
// admission holds when the event loop posts the call: it reads only
// process-side state, which calls change in call order, and the fence and
// PSCW calls, which change the rest, settle first.
func (q *issueQueue) admit(w *Win, c *rmaCall, cmp []byte) bool {
	if !w.g.w.queueIssue || w.check(c, cmp) != "" {
		return false
	}
	i, idle := q.queue(issueItem{kind: itemOp, w: w, ep: w.callEpoch(c), call: *c})
	it := &q.items[i]
	it.call.data = snapshot(q.r.pool, c.dt, c.data, cmp, &it.inl)
	if idle {
		q.run()
	}
	return true
}

// push queues synchronization item it, whose targets are list (nil:
// it.call.target alone), and starts it when the queue was idle. With wait
// set the rank then settles, returning where the eager call returns.
func (q *issueQueue) push(it issueItem, list []int, wait bool) {
	i, idle := q.queue(it)
	if list != nil {
		if q.lists == nil {
			q.lists = make([][]int, issueQueueCap+1)
		}
		q.lists[i] = list
	}
	if idle {
		q.run()
	}
	if wait {
		q.r.settle()
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
// step or wait pending (true) or the queue is empty (false).
func (q *issueQueue) run() bool {
	for ; q.head < len(q.items); q.head++ {
		if q.start(&q.items[q.head]) {
			return true
		}
	}
	clear(q.items)
	if q.lists != nil {
		clear(q.lists[:len(q.items)])
	}
	q.items, q.head = q.items[:0], 0
	return false
}

// Continue implements sim.Continuation: the step or the served wait of
// the item at head ended.
func (q *issueQueue) Continue() bool {
	if q.resume(&q.items[q.head]) {
		return true
	}
	q.head++
	return q.run()
}

// start does what the eager rank does on reaching it — enters MPI and
// starts its step — and, when no step is pending, goes on (resume). It
// reports whether the item has a step or wait pending.
func (q *issueQueue) start(it *issueItem) bool {
	r := q.r
	switch it.kind {
	case itemAdvance:
		q.mark = r.engine.stolen
		return r.proc.Serve(q, it.d)
	case itemOp:
		r.engine.enterMPI()
		if r.proc.Serve(q, r.callCost()+r.issueCost()) {
			return true
		}
	case itemLock, itemUnlock:
		r.engine.enterMPI()
	default:
		r.engine.enterMPI()
		if r.proc.Serve(q, r.callCost()) {
			return true
		}
	}
	return q.resume(it)
}

// resume does what the eager rank does when it is switched back in at the
// end of the item's step or wait: posts the op of an RMA call, goes on
// with a synchronization call, leaves MPI once the call is done. It
// reports whether the item has another step or wait pending.
func (q *issueQueue) resume(it *issueItem) bool {
	switch it.kind {
	case itemAdvance:
		return false
	case itemOp:
		o := it.w.newOp(&it.call)
		o.inl = it.inl
		if n := len(o.data); o.data != nil && n <= opInline {
			o.data = o.inl[:n] // the snapshot moves with the header
		}
		it.w.post(o, it.ep)
	case itemCall:
	default:
		var list []int
		if q.lists != nil {
			list = q.lists[q.head]
		}
		if it.w.sync(it, list, true) {
			return true
		}
	}
	q.r.mpiLeave()
	return false
}

package mpi

import "repro/internal/sim"

// The issue queue lets an origin make RMA and passive-target
// synchronization calls without a coroutine switch per call. Eagerly, every
// Put, Get or accumulate parks its rank for the call's one step of
// callCost+issueCost (sim.Proc.Advance) and is switched back in only to run
// the rest of Win.issue: the credit, the send, the lock request, the
// pending count. Every Lock, Unlock, Flush or Acquire parks on its entry
// cost (a LockEach or UnlockEach on the sum of the entry costs it owes) and
// again on each lock grant and remote completion it waits for. A queued
// call instead is admitted at call time — its checks have passed, its
// payload is snapshotted, the epoch flags it changes are changed — and
// returns without parking. The event loop runs the rest itself: when the
// call's step pops (sim.Proc.Serve) or the awaited completion, credit or
// signal wakes the rank (sim.Completion.Serve, sim.Signal.Serve), it runs
// what the rank would have run at that pop, then goes on with the next
// queued call. The rank is switched in only once its queue is empty.
//
// Every world and every window queues: fault plans and flow control
// included. A call runs in the process instead for one of two reasons
// only: the fast paths are off (the eager reference,
// sim.Engine.DisableFastPaths), or the call fails check at admission (see
// issueQueue.admit).
//
// Every step and wake-up is the event it is eagerly, under the same seq,
// and the continuation runs the statements the rank would have run at that
// pop, in the same order, so the timeline is the eager one event for event.
// Three rules keep it so.
//
// The settle rule: a rank with calls queued has not reached the time its
// code runs at, so every other MPI entry point (mpiEnter and the direct
// enterMPI callers), Now, Compute, window allocation and the end of the
// process first park until the queue drains (Rank.settle), and
// resume at exactly the pop where the eager rank would have been switched
// in. mpiEnter and Compute queue their own first step — the call cost, the
// computation — behind the calls they settle, so the rank parks once for
// both. A park reached any other way with calls queued panics
// (sim.Proc.park). A completion call (Flush, FlushAll, Unlock, UnlockAll)
// whose return lets the caller read what its ops changed — one of them
// writes origin memory or targets the caller (see Win.holdCompletion) — is
// queued and then settles, which returns at the eager instant.
//
// The state rule: the epoch flags (Win.epoch, Win.lockAll) are
// process-side. Calls update them when they are made, in call order, so
// every misuse check sees the effect of every call before it; a misused
// call takes the eager path (settle, then run in the process), which
// panics with the misuse at its usual instant. Channel, lock and credit
// state (Win.chans, flowState) and everything the fault plan changes
// (crashes, detector verdicts) are engine-side: only the queued calls
// touch them, when the event loop runs them, and what they need of the
// flags travels with them (issueItem.ep) or on the channel (lockMsg.ep).
// check reads one engine-side fact, whether a crashed target's empty
// region excuses a bounds failure; admission does without that excuse.
//
// The layer rule: a layer above MPI (Casper) whose calls read engine-side
// state of its own defers each call as one item (Win.DeferOp, Win.Defer)
// and expands it into MPI calls where the queue reaches it (Expander): at
// the pop where the eager rank would make them. The layer splits its state
// the same way — what its calls check and change at call time travels with
// the item; what the expansions read and change is touched by expansions
// only — and the MPI calls an expansion makes are queued ahead of the
// rank's later items, in call order, never run in the process.

// issueQueueCap bounds the items a rank may have queued: the next call
// settles first. A queued call keeps its arguments and payload snapshot in
// its item and takes its op header from the freelist only when it is
// issued, at the pop where the eager rank takes it, so queueing allocates
// no header the eager schedule does not. What the bound trades is the
// queue's own block (144-byte items, about 5 KB per queueing rank) against
// switches: 32 is the smallest power of two that holds fig5a -quick to 0.2
// switches per RMA op, and 128 gains nothing on wide worlds
// (EXPERIMENTS.md, "The served issue queue" and "Tried and lost"). An
// expansion may queue past it.
const issueQueueCap = 32

// itemKind is what a queued item does once the event loop reaches it.
type itemKind uint8

const (
	itemAdvance itemKind = iota // [d] outside MPI: a settling Compute
	itemOp                      // MPI entry, [callCost+issueCost], credit, post, MPI exit: an RMA call
	itemCall                    // MPI entry, [callCost], MPI exit: LockAll, a settling mpiEnter
	itemLayer                   // [d] outside MPI, then the layer's expansion (Expander)

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
	stage syncStage      // synchronization items: where the item resumes; itemOp: stCredit while it waits for one; itemLayer: the layer's stage
	ep    uint8          // itemOp, itemLock, itemAcquire: the epoch flags admitted with the call; itemLayer: the layer's tag
	pos   int32          // synchronization items: the LockEach or UnlockEach target index, or the target an UnlockAll or FlushAll reached; itemLayer: the layer's position
	d     sim.Duration   // itemAdvance, itemLayer: the step; itemOp: when its credit stall began
	w     *Win           // the handle making the call (none for itemAdvance, itemCall)
	call  rmaCall        // itemOp, itemLayer: the admitted call, call.data its payload snapshot; a synchronization call on one target: call.target
	inl   [opInline]byte // itemOp, itemLayer: the snapshot when it fits, and a CAS's compare value
}

// issueQueue is a rank's queued items, items[head:] in call order. The
// rank appends only while it runs and the event loop consumes and expands
// only while the rank is parked in settle, so the rank always finds it
// empty when it is switched back in.
type issueQueue struct {
	r     *Rank
	items []issueItem
	lists [][]int // lists[i]: the targets of items[i], a LockEach or UnlockEach (nil: call.target alone)
	head  int
	mark  sim.Duration // the rank's stolen time when the last itemAdvance started

	// exp is the expansion in progress, nil outside one (see expand); x is
	// its storage, reused by every expansion of the rank.
	exp *Expansion
	x   Expansion
}

// settle parks the rank until every queued call has been issued (see the
// settle rule above). An expansion runs where the rank cannot park: the
// MPI calls it makes must be queued.
func (r *Rank) settle() {
	if r.issueQ.exp != nil {
		panic("mpi: a call made by an expansion (Expander) cannot be queued")
	}
	r.proc.Settle()
}

// queues reports whether the rank may queue calls: the fast paths are on.
func (q *issueQueue) queues() bool { return !q.r.eng.FastPathsDisabled() }

// queue appends a zeroed item for the caller to fill in, settling first
// when the queue is full, and returns it, its index and whether the queue
// was idle: then nothing is in flight, and the caller, once it has
// completed the item, starts the queue (run) at once, as the eager rank
// would start the call now. During an expansion the item is queued behind
// the calls the expansion made so far instead, ahead of the rank's later
// items, and the queue is never idle.
func (q *issueQueue) queue() (it *issueItem, i int, idle bool) {
	if x := q.exp; x != nil {
		i = x.place()
		return &q.items[i], i, false
	}
	if len(q.items)+1 > issueQueueCap {
		q.r.settle()
	}
	if q.items == nil {
		q.items = make([]issueItem, 0, issueQueueCap+4) // +1: the settling call's item; +3: room for an expansion, in the same size class
	}
	// The slots past the end are zero: run clears every slot it used.
	i, idle = len(q.items), len(q.items) == 0
	q.items = q.items[:i+1]
	return &q.items[i], i, idle
}

// admit queues call c on handle w and reports true, or reports false,
// having done nothing, when c must take the eager path: the rank does not
// queue, or check fails (the eager path then panics at its usual instant).
// Admission forgoes check's crash excuse, which reads engine-side state:
// a call it would excuse takes the eager path too, and is excused or not
// at the eager instant. cmp is the compare value of a CAS, nil otherwise.
// check's verdict at admission holds when the event loop posts the call:
// it reads only process-side state, which calls change in call order, and
// the fence and PSCW calls, which change the rest, settle first.
//
// A call made by an expansion is checked with the excuse: it has no eager
// path, and the excuse it earns now still holds at its post, since a crash
// is never undone. Its payload, when it is the expanded call's whole
// snapshot, moves to it uncopied.
func (q *issueQueue) admit(w *Win, c *rmaCall, cmp []byte) bool {
	x := q.exp
	if x == nil && !q.queues() {
		return false
	}
	if msg := w.check(c, cmp, x != nil); msg != "" {
		if x != nil {
			panic(msg)
		}
		return false
	}
	ep := w.callEpoch(c)
	it, _, idle := q.queue()
	it.kind, it.w, it.ep, it.call = itemOp, w, ep, *c
	if x != nil && x.owned && sameBuffer(c.data, x.it.call.data) {
		x.owned = false // a pooled snapshot: the op recycles it
	} else {
		it.call.data = snapshot(q.r.pool, c.dt, c.data, cmp, &it.inl)
	}
	if idle {
		q.run()
	}
	return true
}

// sameBuffer reports whether a and b are the same bytes.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// push queues synchronization item it, whose targets are list (nil:
// it.call.target alone), and starts it when the queue was idle. With wait
// set the rank then settles, returning where the eager call returns; an
// expansion leaves that to the layer's call.
func (q *issueQueue) push(it issueItem, list []int, wait bool) {
	p, i, idle := q.queue()
	*p = it
	if list != nil {
		if q.lists == nil {
			q.lists = make([][]int, cap(q.items))
		}
		q.setList(i, list)
	}
	if idle {
		q.run()
	}
	if wait && q.exp == nil {
		q.r.settle()
	}
}

// setList records list as the targets of items[i].
func (q *issueQueue) setList(i int, list []int) {
	q.fitLists()
	q.lists[i] = list
}

// fitLists grows lists, once allocated, to cover every item: an
// expansion may queue past the bound.
func (q *issueQueue) fitLists() {
	for q.lists != nil && len(q.lists) < len(q.items) {
		q.lists = append(q.lists, nil)
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
		clear(q.lists)
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
	case itemLayer:
		if r.proc.Serve(q, it.d) {
			return true
		}
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
// end of the item's step or wait: takes the credit and posts the op of an
// RMA call, goes on with a synchronization call, expands a layer's call,
// leaves MPI once the call is done. It reports whether the item has
// another step or wait pending.
func (q *issueQueue) resume(it *issueItem) bool {
	switch it.kind {
	case itemAdvance:
		return false
	case itemLayer:
		return q.expand(it)
	case itemOp:
		var credit *creditChan
		if f := q.r.w.flow; f != nil {
			var pending bool
			if credit, pending = f.serve(q, it); pending {
				return true
			}
		}
		o := it.w.newOp(&it.call)
		o.inl = it.inl
		if n := len(o.data); o.data != nil && n <= opInline {
			o.data = o.inl[:n] // the snapshot moves with the header
		}
		if credit != nil {
			o.extra().credit = credit
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

// --- Layers above MPI ------------------------------------------------

// An Expander is a layer above MPI that defers its calls to the issue
// queue (Win.DeferOp, Win.Defer) and makes the MPI calls each stands for
// where the queue reaches it: at the pop where the eager rank, having paid
// the call's lead step, would make them. Casper redirects its RMA calls and
// translates its passive-target epochs this way.
type Expander interface {
	// Expand runs in engine context, or in the rank's process when the
	// queue was idle at the call. It may read and change the layer's
	// expansion-side state, make MPI calls on any of the rank's windows,
	// which are queued in order ahead of the rank's later items (none may
	// run in the process: see Rank.settle), and have the rest of the call
	// expanded once those are done (Expansion.Again). It reports true when
	// it registered a served wait instead (Expansion.Wait) and made no
	// call: the item is expanded again, from the same stage, when the wait
	// ends.
	Expand(x *Expansion) bool
}

// SetExpander makes x the layer that expands the calls deferred on w.
func (w *Win) SetExpander(x Expander) { w.layer = x }

// DeferOp defers an RMA call of w's layer: the rank spends lead outside
// MPI, then the layer expands the call (Expander). The layer must have
// made every check of the call that the eager path would panic on. The
// payload src (and cmp, a CAS's compare value) is snapshotted now, so the
// caller owns its buffers again on return; dst is written when the op the
// expansion makes applies. tag is the layer's, returned by Expansion.Tag.
// It reports false, doing nothing, when the rank does not queue.
func (w *Win) DeferOp(tag uint8, lead sim.Duration, kind OpKind, op Op, target, disp int,
	dt Datatype, src, dst, cmp []byte) bool {
	q := &w.r.issueQ
	if !q.queues() {
		return false
	}
	it, _, idle := q.queue()
	it.kind, it.w, it.ep, it.d = itemLayer, w, tag, lead
	it.call = rmaCall{kind: kind, op: op, target: target, disp: disp, dt: dt, dst: dst}
	it.call.data = snapshot(q.r.pool, dt, src, cmp, &it.inl)
	if idle {
		q.run()
	}
	return true
}

// Defer defers a synchronization call of w's layer on target, expanded at
// once when the queue reaches it (no lead step). With wait set the rank
// then settles, as a completion whose effects the caller may read must.
// It reports false, doing nothing, when the rank does not queue.
func (w *Win) Defer(tag uint8, target int, wait bool) bool {
	q := &w.r.issueQ
	if !q.queues() {
		return false
	}
	it := issueItem{kind: itemLayer, w: w, ep: tag}
	it.call.target = target
	q.push(it, nil, wait)
	return true
}

// Expansion is a deferred call at the instant the queue reaches it.
type Expansion struct {
	q      *issueQueue
	it     issueItem // the deferred item, its payload re-pointed into its own inl
	ins    int       // where the next call made is queued
	gap    int       // free slots between ins and the rank's later items (see place)
	placed bool      // a call made took the deferred item's slot
	owned  bool      // the pooled payload snapshot is still the expansion's
}

// Tag returns the layer's tag of the call.
func (x *Expansion) Tag() uint8 { return x.it.ep }

// Stage and Pos return where the expansion resumes: zero at first, as
// Again set them after.
func (x *Expansion) Stage() uint8 { return uint8(x.it.stage) }
func (x *Expansion) Pos() int     { return int(x.it.pos) }

// Target returns the call's target.
func (x *Expansion) Target() int { return x.it.call.target }

// Op returns the arguments of a call deferred by DeferOp, src and cmp
// being its snapshots.
func (x *Expansion) Op() (kind OpKind, op Op, disp int, dt Datatype, src, dst, cmp []byte) {
	c := &x.it.call
	if c.kind == KindCAS {
		cmp = x.it.inl[opInline/2 : opInline/2+c.dt.Basic.Size()]
	}
	return c.kind, c.op, c.disp, c.dt, c.data, c.dst, cmp
}

// Again has the layer expand the call once more, from stage and pos, when
// the calls made so far are done: at the pop where the eager rank returns
// from the last of them. It is the last thing an expansion does.
func (x *Expansion) Again(stage uint8, pos int) {
	it := &x.q.items[x.place()]
	*it = x.it
	it.stage, it.pos, it.d = syncStage(stage), int32(pos), 0
	x.owned = false // the snapshot goes with the item
}

// Wait registers the rank's served wait on s; Expand then reports true.
func (x *Expansion) Wait(s *sim.Signal, reason string) {
	s.Serve(x.q.r.proc, x.q, reason)
}

// Room reports whether the expansion may make n more calls, and have the
// rest expanded after them (Again), without growing the queue's block: a
// layer making many calls in a loop stops when there is none. Before its
// first call there always is, so an expansion makes progress.
func (x *Expansion) Room(n int) bool {
	q := x.q
	return !x.placed || x.gap+q.head+cap(q.items)-len(q.items) > n
}

// place queues a zeroed item at the expansion's insertion point and
// returns its index: in the deferred item's own slot first, then behind
// the calls made so far. For those it opens a gap in front of the rank's
// later items by moving the calls made so far onto the consumed items
// before them (closeGap moves them back against the later items over
// what is left of it when the expansion ends), so an expansion moves only
// its own calls; with nothing consumed it shifts the later items.
func (x *Expansion) place() int {
	q := x.q
	q.fitLists()
	switch {
	case !x.placed:
		x.placed = true
	case x.gap > 0:
		x.gap--
	case q.head > 0:
		// Move the calls made so far down by as many slots as there are
		// of them (or consumed items): each call moves a bounded number
		// of times however many the expansion makes.
		h, g := q.head, min(q.head, x.ins-q.head)
		copy(q.items[h-g:x.ins-g], q.items[h:x.ins])
		if q.lists != nil {
			copy(q.lists[h-g:x.ins-g], q.lists[h:x.ins])
		}
		q.head, x.ins, x.gap = h-g, x.ins-g, g-1
	default:
		q.items = append(q.items, issueItem{})
		copy(q.items[x.ins+1:], q.items[x.ins:])
		if q.fitLists(); q.lists != nil {
			copy(q.lists[x.ins+1:], q.lists[x.ins:])
		}
	}
	i := x.ins
	x.ins++
	q.items[i] = issueItem{}
	if q.lists != nil {
		q.lists[i] = nil
	}
	return i
}

// closeGap moves the calls an expansion made back against the rank's
// later items, over the gap place opened.
func (x *Expansion) closeGap() {
	q := x.q
	if x.gap == 0 {
		return
	}
	h := q.head
	copy(q.items[h+x.gap:x.ins+x.gap], q.items[h:x.ins])
	if q.lists != nil {
		copy(q.lists[h+x.gap:x.ins+x.gap], q.lists[h:x.ins])
	}
	q.head += x.gap
	x.ins += x.gap
	x.gap = 0
}

// expand has the layer expand item it, at head, and goes on with the
// calls the expansion made, which now start at head. It reports whether a
// step or wait is pending.
func (q *issueQueue) expand(it *issueItem) bool {
	x := &q.x
	x.it = *it
	x.q, x.ins, x.gap, x.placed, x.owned = q, q.head, 0, false, false
	c := &x.it.call
	if n := len(c.data); c.data != nil && n <= opInline {
		c.data = x.it.inl[:n]
	} else {
		x.owned = c.data != nil
	}
	q.exp = x
	pending := x.it.w.layer.Expand(x)
	q.exp = nil
	x.closeGap()
	if pending {
		if x.placed {
			panic("mpi: an expansion both waited and made calls")
		}
		return true
	}
	if x.owned {
		q.r.pool.put(c.data) // split into pieces with their own snapshots
	}
	if !x.placed {
		return false // nothing to issue: the call is done
	}
	return q.start(&q.items[q.head])
}

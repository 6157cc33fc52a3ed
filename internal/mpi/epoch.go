package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// --- Fence ------------------------------------------------------------

// Fence implements Window: MPI_WIN_FENCE. Closing a fence epoch
// guarantees that all operations targeting this process have been
// applied and all operations it issued are complete; the model gates the
// fence barrier on the window's global in-flight count draining (a
// piggybacked completion count, as real implementations do), so the
// origin pays no per-operation ack round trips — which is precisely the
// advantage the base implementation has over Casper's
// flushall+barrier translation (Section III-C1).
func (w *Win) Fence(assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if !assert.Has(ModeNoPrecede) {
		// While parked here the rank is inside MPI, so AMs targeted at
		// it are serviced — fence drains both directions.
		w.g.inflight.Wait(r.proc, "MPI_Win_fence drain")
	}
	w.c.collective("MPI_Win_fence", nil, w.c.barrierCost(), nil)
	w.fenceActive = !assert.Has(ModeNoSucceed)
}

// --- PSCW -------------------------------------------------------------

// Post implements Window: MPI_WIN_POST, opening an exposure epoch for
// the origins in group (comm ranks). It does not block.
func (w *Win) Post(group []int, assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.exposure != nil {
		panic("mpi: Post with exposure epoch already open")
	}
	w.exposure = &pscwExposure{group: append([]int(nil), group...), assert: assert}
	p := w.g.pscwState()
	if p.expected[w.me] == nil {
		p.expected[w.me] = map[int]int64{}
	}
	for _, o := range w.exposure.group {
		delete(p.expected[w.me], o)
	}
	if !assert.Has(ModeNoCheck) {
		// Notify each origin that this target is posted; the notification
		// lands one wire time later.
		for _, origin := range w.exposure.group {
			origin := origin
			wire := r.transferTo(w.g.comm.ranks[origin], 16)
			me := w.me
			r.eng.At(r.eng.Now().Add(wire), func() {
				if p.postSeen[origin] == nil {
					p.postSeen[origin] = map[int]bool{}
				}
				p.postSeen[origin][me] = true
				p.sig.Broadcast()
			})
		}
	}
}

// Start implements Window: MPI_WIN_START, opening an access epoch to the
// targets in group. Without ModeNoCheck it blocks until all targets have
// posted.
func (w *Win) Start(group []int, assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.access != nil {
		panic("mpi: Start with access epoch already open")
	}
	w.access = &pscwAccess{group: append([]int(nil), group...), assert: assert,
		issued: map[int]int64{}}
	if !assert.Has(ModeNoCheck) {
		p := w.g.pscwState()
		for {
			ready := true
			for _, t := range w.access.group {
				if p.postSeen[w.me] == nil || !p.postSeen[w.me][t] {
					ready = false
					break
				}
			}
			if ready {
				break
			}
			p.sig.Wait(r.proc, "MPI_Win_start awaiting posts")
		}
		for _, t := range w.access.group {
			delete(p.postSeen[w.me], t)
		}
	}
}

// Complete implements Window: MPI_WIN_COMPLETE, closing the access
// epoch. It guarantees local completion only; each target learns the
// number of operations to expect.
func (w *Win) Complete() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.access == nil {
		panic("mpi: Complete without access epoch")
	}
	p := w.g.pscwState()
	for _, t := range w.access.group {
		t := t
		count := w.access.issued[t]
		origin := w.me
		wire := r.transferTo(w.g.comm.ranks[t], 16)
		r.eng.At(r.eng.Now().Add(wire), func() {
			if p.expected[t] == nil {
				p.expected[t] = map[int]int64{}
			}
			p.expected[t][origin] = count + 1 // +1 marks "complete received"
			p.sig.Broadcast()
		})
	}
	w.access = nil
}

// Wait implements Window: MPI_WIN_WAIT, closing the exposure epoch once
// every origin has called Complete and all their operations have been
// applied here.
func (w *Win) Wait() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.exposure == nil {
		panic("mpi: Wait without exposure epoch")
	}
	p := w.g.pscwState()
	for {
		done := true
		for _, origin := range w.exposure.group {
			exp, ok := p.expected[w.me][origin]
			if !ok {
				done = false
				break
			}
			var applied int64
			if p.applied[w.me] != nil {
				applied = p.applied[w.me][origin]
			}
			if applied < exp-1 {
				done = false
				break
			}
		}
		if done {
			break
		}
		p.sig.Wait(r.proc, "MPI_Win_wait")
	}
	for _, origin := range w.exposure.group {
		delete(p.expected[w.me], origin)
		if p.applied[w.me] != nil {
			p.applied[w.me][origin] = 0
		}
	}
	w.exposure = nil
}

// --- Passive target ----------------------------------------------------
//
// Each passive-target call checks and updates the epoch flags when it is
// made and leaves the rest — entry costs, lock requests, waits, releases —
// to a synchronization item (Win.sync), which the event loop runs where
// the rank queues calls and the call runs in the process otherwise (see
// issue.go). A misused call always runs in the process, after the calls
// queued before it, so it pays what it owes and panics at the eager
// instant.

// Lock implements Window: MPI_WIN_LOCK. With the platform's lazy-lock
// behaviour the acquisition is deferred to the first operation or flush
// (Section III-B: "many MPI implementations might not acquire the lock
// immediately"); a lock to self is acquired eagerly, which MPI requires
// so local load/store access is immediately legal.
func (w *Win) Lock(target int, lock LockType, assert Assert) {
	w.lockEach(nil, target, lock)
}

// LockEach makes len(targets) consecutive MPI_WIN_LOCK calls, one per
// target in order, and is indistinguishable from that loop in virtual
// time: every call still costs its MPI entry. What it saves is host
// work. Opening an epoch on a lazily locked target is bookkeeping only
// this rank can see, so the entry costs of such calls are owed rather
// than paid one by one, and paid as one advance of their sum immediately
// before anything another rank or a later event could observe: a lock
// request leaving (eager or self target), a misuse panic, the return.
// A queued LockEach keeps targets until the event loop has run it, so
// the caller must not change them before its next settling call.
func (w *Win) LockEach(targets []int, lock LockType, assert Assert) {
	if len(targets) > 0 {
		w.lockEach(targets, 0, lock)
	}
}

// lockEach is LockEach over list, or over one alone when list is nil.
func (w *Win) lockEach(list []int, one int, lock LockType) {
	flags := epLocked
	if lock == LockExclusive {
		flags |= epExcl
	}
	it := issueItem{kind: itemLock, w: w, ep: flags}
	it.call.target = one
	q := &w.r.issueQ
	if q.queues() && w.openEpochs(list, one, flags) {
		q.push(it, list, false)
		return
	}
	w.r.settle()
	w.r.engine.enterMPI()
	defer w.r.mpiLeave()
	w.sync(&it, list, false)
}

// openEpochs opens the epochs of a queued LockEach: unless one of its
// calls is a misuse — a target out of range, already locked, or locked
// twice — it sets every target's flags and reports true; otherwise it
// changes nothing and reports false.
func (w *Win) openEpochs(list []int, one int, flags uint8) bool {
	if !w.markTargets(list, one, func(ep uint8) bool { return ep&epLocked == 0 }) {
		return false
	}
	for i := 0; i < targetCount(list); i++ {
		w.epoch[nthTarget(list, one, i)] = flags
	}
	return true
}

// markTargets checks a synchronization call's targets in call order: each
// must be in range, pass ok on its flags, and appear once. If all do it
// marks them (epSeen) and reports true; otherwise it changes nothing.
func (w *Win) markTargets(list []int, one int, ok func(ep uint8) bool) bool {
	for i := 0; i < targetCount(list); i++ {
		t := nthTarget(list, one, i)
		if t < 0 || t >= len(w.g.comm.ranks) || w.epochFlags(t)&epSeen != 0 || !ok(w.epochFlags(t)) {
			for _, u := range list[:i] {
				w.epoch[u] &^= epSeen
			}
			return false
		}
		*w.epochOf(t) |= epSeen
	}
	return true
}

// Unlock implements Window: MPI_WIN_UNLOCK, completing all operations to
// the target and releasing the lock.
func (w *Win) Unlock(target int) {
	w.unlockEach(nil, target)
}

// UnlockEach makes len(targets) consecutive MPI_WIN_UNLOCK calls, one
// per target in order, under the same rule as LockEach: the entry costs
// of calls that only drop a never-requested lock are owed, and paid
// before a requested target is closed (which waits, and sends the
// release), before a misuse panic, and before returning. A queued
// UnlockEach keeps targets as a queued LockEach does.
func (w *Win) UnlockEach(targets []int) {
	if len(targets) > 0 {
		w.unlockEach(targets, 0)
	}
}

// unlockEach is UnlockEach over list, or over one alone when list is nil.
func (w *Win) unlockEach(list []int, one int) {
	it := issueItem{kind: itemUnlock, w: w}
	it.call.target = one
	q := &w.r.issueQ
	if q.queues() {
		if ok, held := w.closeEpochs(list, one); ok {
			q.push(it, list, held)
			return
		}
	}
	w.r.settle()
	w.r.engine.enterMPI()
	defer w.r.mpiLeave()
	w.sync(&it, list, false)
}

// closeEpochs closes the epochs of a queued UnlockEach: unless one of its
// calls is a misuse — a target not locked, locked by LockAll, or unlocked
// twice — it clears every target's flags and reports true, and held when
// one of the epochs held its completion (see holdCompletion); otherwise it changes
// nothing.
func (w *Win) closeEpochs(list []int, one int) (ok, held bool) {
	if !w.markTargets(list, one, func(ep uint8) bool { return ep&epLocked != 0 && ep&epViaAll == 0 }) {
		return false, false
	}
	for i := 0; i < targetCount(list); i++ {
		held = w.clearEpoch(nthTarget(list, one, i)) || held
	}
	return true, held
}

// clearEpoch clears target's epoch flags and reports whether they held
// its completion.
func (w *Win) clearEpoch(t int) (held bool) {
	if held = w.epoch[t]&epHold != 0; held {
		w.holds--
	}
	w.epoch[t] = 0
	return held
}

// targetCount and nthTarget read the targets of a synchronization call:
// list, or one alone when list is nil.
func targetCount(list []int) int {
	if list == nil {
		return 1
	}
	return len(list)
}

func nthTarget(list []int, one, i int) int {
	if list == nil {
		return one
	}
	return list[i]
}

// holdCompletion marks target's epoch as one whose next completion the
// caller may read the effect of when it returns: an op on it writes origin
// memory (Get, GetAccumulate, FetchAndOp, CAS) or targets the caller's own
// window. Such a completion settles (issue.go), and clears the mark once it
// has returned. No-op outside a passive epoch.
func (w *Win) holdCompletion(target int) {
	if ep := w.epochFlags(target); ep&epLocked != 0 && ep&epHold == 0 {
		w.epoch[target] |= epHold
		w.holds++
	}
}

// LockAll implements Window: MPI_WIN_LOCK_ALL (shared mode on every
// rank). Acquisition is lazy per target.
func (w *Win) LockAll(assert Assert) {
	r := w.r
	if !w.lockAll && r.issueQ.queues() {
		w.lockAll = true
		r.issueQ.push(issueItem{kind: itemCall}, nil, false)
		return
	}
	r.mpiEnter()
	defer r.mpiLeave()
	if w.lockAll {
		panic("mpi: nested LockAll")
	}
	w.lockAll = true
}

// UnlockAll implements Window: MPI_WIN_UNLOCK_ALL.
func (w *Win) UnlockAll() {
	r := w.r
	it := issueItem{kind: itemUnlockAll, w: w}
	misuse := !w.lockAll
	if !misuse {
		held := false
		for t, ep := range w.epoch {
			if ep&epViaAll != 0 {
				held = w.clearEpoch(t) || held
			}
		}
		w.lockAll = false
		if r.issueQ.queues() {
			r.issueQ.push(it, nil, held)
			return
		}
	}
	r.mpiEnter()
	defer r.mpiLeave()
	if misuse {
		panic("mpi: UnlockAll without LockAll")
	}
	w.sync(&it, nil, false)
}

// Flush implements Window: MPI_WIN_FLUSH — complete all outstanding
// operations to the target at both origin and target. After a flush the
// lock is necessarily acquired, which opens Casper's
// "static-binding-free" interval (Section III-B-3).
func (w *Win) Flush(target int) {
	r := w.r
	it := issueItem{kind: itemFlush, w: w}
	it.call.target = target
	ep := w.epochFlags(target)
	misuse := ep&epLocked == 0 && !w.lockAll
	if !misuse && r.issueQ.queues() {
		r.issueQ.push(it, nil, ep&epHold != 0)
	} else {
		r.mpiEnter()
		defer r.mpiLeave()
		if misuse {
			panic(fmt.Sprintf("mpi: Flush of target %d without passive epoch", target))
		}
		w.sync(&it, nil, false)
	}
	if ep&epHold != 0 {
		w.epoch[target] &^= epHold
		w.holds--
	}
}

// FlushAll implements Window: MPI_WIN_FLUSH_ALL.
func (w *Win) FlushAll() {
	r := w.r
	it := issueItem{kind: itemFlushAll, w: w}
	if r.issueQ.queues() {
		r.issueQ.push(it, nil, w.holds > 0)
	} else {
		r.mpiEnter()
		defer r.mpiLeave()
		w.sync(&it, nil, false)
	}
	if w.holds > 0 {
		for t := range w.epoch {
			w.epoch[t] &^= epHold
		}
		w.holds = 0
	}
}

// FlushLocal implements Window: MPI_WIN_FLUSH_LOCAL. Origin buffers are
// snapshotted at issue in this model, so local completion is immediate.
func (w *Win) FlushLocal(target int) {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// FlushLocalAll implements Window: MPI_WIN_FLUSH_LOCAL_ALL.
func (w *Win) FlushLocalAll() {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// Sync implements Window: MPI_WIN_SYNC, the memory barrier Casper must
// add to its fence translation (Section III-C1).
func (w *Win) Sync() {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// Acquire forces acquisition of the (lazily requested) lock on target,
// blocking until it is granted. MPI implementations do this inside
// flush; Casper calls it explicitly so that a flush opens the
// static-binding-free interval on every ghost of the node (III-B-3).
// Nothing the caller can read changes when it returns, so it is queued
// wherever the rank queues calls, except on the caller itself — unless an
// expansion makes it, whose layer settles where its caller may read.
func (w *Win) Acquire(target int) {
	r := w.r
	it := issueItem{kind: itemAcquire, w: w}
	it.call.target = target
	if (target != w.me || r.issueQ.exp != nil) && target >= 0 && target < len(w.g.comm.ranks) && r.issueQ.queues() {
		if ep, ok := w.coverTarget(target); ok {
			it.ep = ep & epKinds
			r.issueQ.push(it, nil, false)
			return
		}
	}
	r.mpiEnter()
	defer r.mpiLeave()
	ep, ok := w.coverTarget(target)
	if !ok {
		panic(fmt.Sprintf("mpi: Acquire of target %d without passive epoch", target))
	}
	it.ep = ep & epKinds
	w.sync(&it, nil, false)
}

// coverTarget returns the flags of the passive epoch covering target,
// or false when there is none; under LockAll a target joins the epoch
// (shared) here, on first use.
func (w *Win) coverTarget(target int) (uint8, bool) {
	ep := w.epochFlags(target)
	if ep&epLocked == 0 {
		if !w.lockAll {
			return 0, false
		}
		ep = epLocked | epViaAll
		*w.epochOf(target) = ep
	}
	return ep, true
}

// callEpoch returns the epoch flags RMA call c, which passed check, runs
// under: those of the passive epoch covering its target, which a lockall
// epoch covers here on first use, or in a fence or PSCW epoch the
// target's flags as they stand. A passive call whose effect the caller
// can read holds the target's next completion (see holdCompletion).
func (w *Win) callEpoch(c *rmaCall) uint8 {
	if w.access != nil || w.fenceActive {
		return w.epochFlags(c.target) & epKinds
	}
	ep, _ := w.coverTarget(c.target)
	if c.kind.writesOrigin() || c.target == w.me {
		w.holdCompletion(c.target)
	}
	return ep & epKinds
}

// requestLock sends the (possibly deferred) lock request of the epoch
// covering target, whose flags are ep, to the target's lock manager. The
// grant comes back as the same message (lockMsg.grant), completing
// granted and releasing the operations queued behind it. The manager is
// instantiated now, not when the request arrives: whether it starts in
// dead mode depends on what the detector has confirmed by this instant.
func (w *Win) requestLock(target int, ep uint8) {
	r := w.r
	w.g.lockMgr(target)
	q := &w.channel(target).lock
	*q = lockMsg{win: w, target: int32(target), excl: ep&epExcl != 0, ep: ep,
		phase: lockPhaseRequest, requested: true}
	var wire sim.Duration
	if target != w.me {
		wire = r.transferTo(w.g.comm.ranks[target], 16)
	}
	r.eng.AtRun(r.eng.Now().Add(wire), q)
}

// --- Synchronization items ---------------------------------------------

// syncStage is where a synchronization item resumes.
type syncStage uint8

const (
	stNext   syncStage = iota // take the target or channel at pos
	stOwed                    // the entry costs owed up to pos are paid: act on its target
	stGrant                   // await the lock grant of the channel at pos
	stDrain                   // await the remote completion of everything issued on it
	stDone                    // the last owed entry costs are paid
	stCredit                  // an RMA call awaits a flow-control credit (flowState.serve)
)

// waitNames are the park reasons of one call's waits, constants so that a
// call that finds nothing to wait for — most of them — builds no string.
type waitNames struct{ grant, drain string }

var (
	unlockWaits   = waitNames{"MPI_Win_unlock awaiting lock grant", "MPI_Win_unlock awaiting remote completion"}
	flushWaits    = waitNames{"MPI_Win_flush awaiting lock grant", "MPI_Win_flush"}
	flushAllWaits = waitNames{"MPI_Win_flush_all awaiting lock grant", "MPI_Win_flush_all"}
)

// sync runs synchronization item it, whose targets are list (nil:
// it.call.target alone), from where it stands: inside MPI, its entry
// costs paid unless it owes them. Served, it runs in engine context and
// reports true as soon as it has a step or a wait pending, to be
// run again, from the same stage, when that ends (issueQueue.resume).
// In the process it parks on each of them and runs to the end, and
// LockEach and UnlockEach also make, target by target, the misuse checks
// and flag updates a queued call made at admission, so a misuse panics
// where the eager call does.
func (w *Win) sync(it *issueItem, list []int, served bool) bool {
	switch it.kind {
	case itemLock:
		return w.lockSteps(it, list, served)
	case itemUnlock:
		return w.unlockSteps(it, list, served)
	case itemUnlockAll:
		for t, ch := w.channelFrom(int(it.pos)); ch != nil; t, ch = w.channelFrom(t + 1) {
			it.pos = int32(t)
			if it.stage == stNext {
				if ch.lock.ep&epViaAll == 0 {
					continue
				}
				if !ch.lock.requested {
					w.dropChannel(t)
					continue
				}
				it.stage = stGrant
			}
			if w.closeSteps(it, ch, served) {
				return true
			}
			w.dropChannel(t)
		}
	case itemFlush:
		ch := w.lookupChannel(it.call.target)
		if it.stage == stNext {
			if ch == nil || ch.lock.ep&epLocked == 0 {
				return false // no op issued to the target yet: nothing to flush
			}
			it.stage = stGrant
		}
		return w.awaitSteps(it, ch, &flushWaits, served)
	case itemFlushAll:
		for t, ch := w.channelFrom(int(it.pos)); ch != nil; t, ch = w.channelFrom(t + 1) {
			it.pos = int32(t)
			if it.stage == stNext {
				if ch.lock.ep&epLocked == 0 {
					continue
				}
				it.stage = stGrant
			}
			if w.awaitSteps(it, ch, &flushAllWaits, served) {
				return true
			}
		}
	case itemAcquire:
		t := it.call.target
		if it.stage == stNext {
			if !w.channel(t).lock.requested {
				w.requestLock(t, it.ep)
			}
			it.stage = stGrant
		}
		return w.await(&w.lookupChannel(t).lock.granted, "MPI_Win lock acquire", served)
	}
	return false
}

// lockSteps is sync for a LockEach.
func (w *Win) lockSteps(it *issueItem, list []int, served bool) bool {
	lazy := w.r.w.net.LockLazy
	owed := 0 // entry costs of the calls made so far, not yet paid
	for n := targetCount(list); int(it.pos) < n; it.pos++ {
		t := nthTarget(list, it.call.target, int(it.pos))
		if it.stage == stNext {
			owed++
			if !served {
				ep := w.epochOf(t)
				if *ep&epLocked != 0 {
					w.payOwed(owed, false)
					panic(fmt.Sprintf("mpi: nested Lock to target %d (disallowed by MPI)", t))
				}
				*ep = it.ep
			}
			if ch := w.lookupChannel(t); ch != nil {
				ch.lock.ep = it.ep // a channel left by a fence or PSCW epoch now carries this one
			}
			if t != w.me && lazy {
				continue
			}
			it.stage = stOwed
			pending := w.payOwed(owed, served)
			owed = 0
			if pending {
				return true
			}
		}
		w.requestLock(t, it.ep)
		it.stage = stNext
	}
	return w.payLast(it, owed, served)
}

// unlockSteps is sync for an UnlockEach.
func (w *Win) unlockSteps(it *issueItem, list []int, served bool) bool {
	owed := 0
	for n := targetCount(list); int(it.pos) < n; it.pos++ {
		t := nthTarget(list, it.call.target, int(it.pos))
		if it.stage == stNext {
			owed++
			if !served {
				if ep := w.epochFlags(t); ep&epLocked == 0 || ep&epViaAll != 0 {
					w.payOwed(owed, false)
					panic(fmt.Sprintf("mpi: Unlock of target %d without Lock", t))
				}
			}
			if ch := w.lookupChannel(t); ch == nil || !ch.lock.requested {
				w.dropEpoch(t, served)
				continue
			}
			it.stage = stGrant
			pending := w.payOwed(owed, served)
			owed = 0
			if pending {
				return true
			}
		}
		if w.closeSteps(it, w.lookupChannel(t), served) {
			return true
		}
		w.dropEpoch(t, served)
	}
	return w.payLast(it, owed, served)
}

// dropEpoch ends the passive epoch to target at this origin, dropping the
// channel state with it; in the process it also clears the flags, which a
// queued call cleared at admission.
func (w *Win) dropEpoch(t int, served bool) {
	if !served {
		w.clearEpoch(t)
	}
	w.dropChannel(t)
}

// payLast pays the entry costs still owed when a LockEach or UnlockEach
// has been through its targets.
func (w *Win) payLast(it *issueItem, owed int, served bool) bool {
	if it.stage == stDone {
		return false
	}
	it.stage = stDone
	return w.payOwed(owed, served)
}

// closeSteps finishes the passive epoch on requested channel ch from
// it.stage (see awaitSteps), then releases the lock. The release is the
// channel's lock message on its third leg, so the channel state outlives
// the epoch by that one event.
func (w *Win) closeSteps(it *issueItem, ch *chanState, served bool) bool {
	if w.awaitSteps(it, ch, &unlockWaits, served) {
		return true
	}
	r := w.r
	q := &ch.lock
	wire := r.transferTo(w.g.comm.ranks[q.target], 16)
	q.phase = lockPhaseRelease
	r.eng.AtRun(r.eng.Now().Add(wire), q)
	return false
}

// awaitSteps waits, from it.stage, for channel ch's lock grant if it was
// requested and then for the remote completion of everything issued on
// it, and leaves it.stage at stNext once both are in. The acks deferred
// at the channel are settled first (chanState.settleAcks): this wait is
// the first that can observe them.
func (w *Win) awaitSteps(it *issueItem, ch *chanState, n *waitNames, served bool) bool {
	if it.stage == stGrant {
		if ch.lock.requested && w.await(&ch.lock.granted, n.grant, served) {
			return true
		}
		it.stage = stDrain
	}
	ch.settleAcks(w.r.w)
	if w.drain(&ch.pending, n.drain, served) {
		return true
	}
	it.stage = stNext
	return false
}

// payOwed charges the entry costs of n calls as one step: served,
// reporting whether it is pending; in the process, as an advance.
func (w *Win) payOwed(n int, served bool) bool {
	r := w.r
	d := sim.Duration(n) * r.callCost()
	if served {
		return r.proc.Serve(&r.issueQ, d)
	}
	r.proc.Advance(d)
	return false
}

// await waits for c: served, by registering the rank (sim.Completion.Serve)
// and reporting whether it is pending; in the process, by parking.
func (w *Win) await(c *sim.Completion, reason string, served bool) bool {
	if served {
		return c.Serve(w.r.proc, &w.r.issueQ, reason)
	}
	c.Await(w.r.proc, reason)
	return false
}

// drain is await for a CompletionSet.
func (w *Win) drain(c *sim.CompletionSet, reason string, served bool) bool {
	if served {
		return c.Serve(w.r.proc, &w.r.issueQ, reason)
	}
	c.Wait(w.r.proc, reason)
	return false
}

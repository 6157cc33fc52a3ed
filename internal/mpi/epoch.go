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

// Lock implements Window: MPI_WIN_LOCK. With the platform's lazy-lock
// behaviour the acquisition is deferred to the first operation or flush
// (Section III-B: "many MPI implementations might not acquire the lock
// immediately"); a lock to self is acquired eagerly, which MPI requires
// so local load/store access is immediately legal.
func (w *Win) Lock(target int, lock LockType, assert Assert) {
	t := [1]int{target}
	w.LockEach(t[:], lock, assert)
}

// LockEach makes len(targets) consecutive MPI_WIN_LOCK calls, one per
// target in order, and is indistinguishable from that loop in virtual
// time: every call still costs its MPI entry. What it saves is host
// work. Opening an epoch on a lazily locked target is bookkeeping only
// this rank can see, so the entry costs of such calls are owed rather
// than paid one by one, and paid — one advance chain — immediately
// before anything another rank or a later event could observe: a lock
// request leaving (eager or self target), a misuse panic, the return.
func (w *Win) LockEach(targets []int, lock LockType, assert Assert) {
	r := w.r
	r.settle()
	r.engine.enterMPI()
	defer r.mpiLeave()
	flags := epLocked
	if lock == LockExclusive {
		flags |= epExcl
	}
	owed := 0 // entry costs of the calls made so far, not yet paid
	for _, target := range targets {
		owed++
		ep := w.epochOf(target)
		if *ep&epLocked != 0 {
			w.pay(owed)
			panic(fmt.Sprintf("mpi: nested Lock to target %d (disallowed by MPI)", target))
		}
		*ep = flags
		if target == w.me || !r.w.net.LockLazy {
			w.pay(owed)
			owed = 0
			w.requestLock(target)
		}
	}
	w.pay(owed)
}

// pay charges the entry cost of n consecutive MPI calls.
func (w *Win) pay(n int) {
	if n > 0 {
		w.r.proc.AdvanceRepeat(w.r.callCost(), n)
	}
}

// Unlock implements Window: MPI_WIN_UNLOCK, completing all operations to
// the target and releasing the lock.
func (w *Win) Unlock(target int) {
	t := [1]int{target}
	w.UnlockEach(t[:])
}

// UnlockEach makes len(targets) consecutive MPI_WIN_UNLOCK calls, one
// per target in order, under the same rule as LockEach: the entry costs
// of calls that only drop a never-requested lock are owed, and paid
// before a requested target is closed (which waits, and sends the
// release), before a misuse panic, and before returning.
func (w *Win) UnlockEach(targets []int) {
	r := w.r
	r.settle()
	r.engine.enterMPI()
	defer r.mpiLeave()
	owed := 0
	for _, target := range targets {
		owed++
		if ep := w.epochFlags(target); ep&epLocked == 0 || ep&epViaAll != 0 {
			w.pay(owed)
			panic(fmt.Sprintf("mpi: Unlock of target %d without Lock", target))
		}
		if ch := w.lookupChannel(target); ch != nil && ch.lock.requested {
			w.pay(owed)
			owed = 0
			w.closeTarget(ch)
		}
		w.clearTarget(target)
	}
	w.pay(owed)
}

// clearTarget ends the passive epoch to target at this origin, dropping
// the channel state with it.
func (w *Win) clearTarget(target int) {
	w.epoch[target] = 0
	if target < len(w.chans) {
		w.chans[target] = nil
	}
}

// closeTarget finishes the passive epoch to one requested target: wait
// for the lock and for the acks of everything issued under it, then
// release it. The release is the channel's lock message on its third
// leg, so the channel state outlives the epoch by that one event.
func (w *Win) closeTarget(ch *chanState) {
	r := w.r
	q := &ch.lock
	q.granted.Await(r.proc, "MPI_Win_unlock awaiting lock grant")
	ch.pending.Wait(r.proc, "MPI_Win_unlock awaiting remote completion")
	wire := r.transferTo(w.g.comm.ranks[q.target], 16)
	q.phase = lockPhaseRelease
	r.eng.AtRun(r.eng.Now().Add(wire), q)
}

// LockAll implements Window: MPI_WIN_LOCK_ALL (shared mode on every
// rank). Acquisition is lazy per target.
func (w *Win) LockAll(assert Assert) {
	r := w.r
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
	r.mpiEnter()
	defer r.mpiLeave()
	if !w.lockAll {
		panic("mpi: UnlockAll without LockAll")
	}
	for t, ep := range w.epoch {
		if ep&epLocked != 0 && ep&epViaAll != 0 {
			if ch := w.lookupChannel(t); ch != nil && ch.lock.requested {
				w.closeTarget(ch)
			}
			w.clearTarget(t)
		}
	}
	w.lockAll = false
}

// Flush implements Window: MPI_WIN_FLUSH — complete all outstanding
// operations to the target at both origin and target. After a flush the
// lock is necessarily acquired, which opens Casper's
// "static-binding-free" interval (Section III-B-3).
func (w *Win) Flush(target int) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.epochFlags(target)&epLocked == 0 {
		if w.lockAll {
			return // no ops issued to this target yet; nothing to flush
		}
		panic(fmt.Sprintf("mpi: Flush of target %d without passive epoch", target))
	}
	if ch := w.lookupChannel(target); ch != nil {
		ch.flush(r.proc, "MPI_Win_flush", "MPI_Win_flush awaiting lock grant")
	}
}

// flush waits for the channel's lock (if requested) and for the remote
// completion of everything issued on it. Both park reasons are the
// caller's constants: a flush that finds nothing to wait for — most of
// them — must not build a string on its way through.
func (ch *chanState) flush(p *sim.Proc, call, callAwaitingGrant string) {
	if ch.lock.requested {
		ch.lock.granted.Await(p, callAwaitingGrant)
	}
	ch.pending.Wait(p, call)
}

// FlushAll implements Window: MPI_WIN_FLUSH_ALL.
func (w *Win) FlushAll() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	for t, ch := range w.chans {
		if ch != nil && w.epochFlags(t)&epLocked != 0 {
			ch.flush(r.proc, "MPI_Win_flush_all", "MPI_Win_flush_all awaiting lock grant")
		}
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
// Once the lock is granted it stays granted until the rank's own Unlock,
// so an Acquire that finds it granted has nothing left to do but its
// MPI entry, and is queued like an RMA call where the rank queues calls.
func (w *Win) Acquire(target int) {
	r := w.r
	if ch := w.lookupChannel(target); r.w.queueIssue && ch != nil && ch.lock.granted.Done() &&
		w.epochFlags(target)&epLocked != 0 {
		r.issueQ.call()
		return
	}
	r.mpiEnter()
	defer r.mpiLeave()
	if _, ok := w.coverTarget(target); !ok {
		panic(fmt.Sprintf("mpi: Acquire of target %d without passive epoch", target))
	}
	q := &w.channel(target).lock
	if !q.requested {
		w.requestLock(target)
	}
	q.granted.Await(r.proc, "MPI_Win lock acquire")
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

// requestLock sends the (possibly deferred) lock request of the epoch
// covering target to the target's lock manager. The grant comes back as
// the same message (lockMsg.grant), completing granted and releasing the
// operations queued behind it. The manager is instantiated now, not when
// the request arrives: whether it starts in dead mode depends on what
// the detector has confirmed by this instant.
func (w *Win) requestLock(target int) {
	r := w.r
	w.g.lockMgr(target)
	q := &w.channel(target).lock
	*q = lockMsg{win: w, target: int32(target),
		excl: w.epoch[target]&epExcl != 0, phase: lockPhaseRequest, requested: true}
	var wire sim.Duration
	if target != w.me {
		wire = r.transferTo(w.g.comm.ranks[target], 16)
	}
	r.eng.AtRun(r.eng.Now().Add(wire), q)
}

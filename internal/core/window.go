package core

import (
	"fmt"

	"repro/internal/mpi"
)

// casperWin is the window handle Casper returns to applications. It
// implements mpi.Window by translating every synchronization call and
// redirecting every communication operation to ghost processes on the
// internal windows (Sections II-C, III).
type casperWin struct {
	p      *Process
	meta   *winMeta // the window's shared immutable record
	epochs epochSet

	shared   *mpi.Win   // node shared-memory window (window users + ghosts)
	lockWins []*mpi.Win // per-user-process overlapping windows (III-A)
	active   *mpi.Win   // shared window for fence/PSCW/lockall epochs
	user     *mpi.Win   // the user-visible window (the users' comm)
	comm     *mpi.Comm  // user communicator of the window
	internal *mpi.Comm  // communicator of the internal windows (users + all ghosts)
	root     mpi.Region

	binding Binding
	lb      LoadBalance

	layout []tinfo // per user comm rank; meta's, shared by every handle: read-only

	// Per-origin routing state, kept beside the shared layout and
	// allocated on first use: which targets' routing preference already
	// failed over once, and the per-node load-balancing counters (kept
	// only under op- and byte-counting, the policies that read them).
	rebound []bool      // per user comm rank
	nodeLB  [][]lbCount // per node, per ghost of the node

	// alive caches progressRanks' surviving ghosts per node while the
	// detector's verdicts stand at aliveAt (mpi.World.HealthVerdicts);
	// selves holds each target's selfInternal, the one-rank list of a
	// node left with no ghost.
	alive   [][]int
	aliveAt uint64
	selves  []int

	// Epoch state, in two parts (the state rule of mpi's issue queue,
	// extended to Casper). The call side is what the calls check and
	// change when they are made, in call order: the epoch kinds open, and
	// epoch, one byte of flags per user comm rank (epLocked, epViaAll,
	// epHeld). The expansion side is what routing reads and changes where
	// the eager process would, at the pop the queue reaches a deferred
	// call (Expand): targets, and the routing state above. A call hands
	// its expansion what it needs of its call side in its tag.
	fenceActive   bool
	lockAllActive bool
	accessGroup   []int
	exposureGroup []int
	epoch         []uint8
	holds         int // targets whose flags carry epHeld
	// targets holds per-target epoch state indexed by user comm rank,
	// by value; the zero ctarget means "untouched". A flat slice keeps
	// the per-op epoch lookup off the map hash path. ghostLocks is what
	// a target's ctarget cannot hold: exactly which internal ranks its
	// epoch locked, where they differ from the layout's ghosts. It is
	// created on first use, by a world with a detected ghost failure.
	targets    []ctarget
	ghostLocks map[int][]int
	freed      bool

	// routeBuf is the scratch slice route() returns its pieces in. The
	// pieces are consumed synchronously inside redirect() before the next
	// route() call on this (per-rank) handle, so one buffer serves every
	// operation without allocating.
	routeBuf []piece

	// flushing is the ghost list a flush's expansion stopped part way
	// through, and flushNext the ghost it resumes at (see flushGhosts):
	// its continuation is the rank's next expansion, so nothing else
	// touches them meanwhile.
	flushing  []int
	flushNext int

	// volatile marks routing that reads what other ranks' events change:
	// detector verdicts (a fault plan), staged bindings (the shepherd),
	// the engine's random stream (UnsafeNoBinding, LBRandom). Only then
	// must an expansion resume where the calls it made return (yield).
	volatile bool

	// sh is the shared overload state of this window (all ranks'
	// handles point at the same object); nil without Config.Overload.
	sh *winShared

	// rec is the app-rank recovery engine; nil unless the fault plan
	// schedules AppCrashes (see recover.go).
	rec *appRecovery
}

var _ mpi.Window = (*casperWin)(nil)

// tinfo is the routing metadata of one user target. It is part of the
// window's shared record: identical for every origin, never written
// after layoutFor.
type tinfo struct {
	rank         int   // the target's user comm rank (its index in the layout)
	world        int   // world rank of the target user process
	node         int   // its node
	base         int   // offset of its memory in the node's shared segment
	size         int   // its window size
	ghosts       []int // ghost ranks of its node, as internal-comm ranks (one slice per node)
	bound        int   // rank-binding ghost (internal-comm rank)
	selfInternal int   // the target user itself, as an internal-comm rank (degraded routing)
	lockWinIdx   int   // which overlapping window serves lock epochs to it
	nodeTotal    int   // total user bytes exposed on its node
	chunk        int   // segment-binding chunk size on its node (16-aligned)
}

// Call-side flags of one target (casperWin.epoch).
const (
	epLocked uint8 = 1 << iota // a passive epoch covers the target
	epViaAll                   // the epoch is lockall's, opened by the target's first use
	epHeld                     // an op on it writes origin memory or the caller's own window
)

// Tags of the calls Casper defers (mpi.Win.DeferOp, mpi.Win.Defer): the
// call in the low bits, what its expansion needs of the call side above.
const (
	tagOp uint8 = iota
	tagLock
	tagUnlock
	tagFlush
	tagFlushAll
	tagUnlockAll

	tagCall    = 0x0f
	tagNoEpoch = 0x10 // tagOp: a fence or PSCW epoch covers the target
	tagOpens   = 0x20 // tagOp, tagFlush: the call opened the target's lazy lockall state
	tagExcl    = 0x40 // tagLock: an exclusive lock
)

// ctarget is per-target epoch state at this origin, as the expansions see
// it: one byte of flags. An origin keeps one per user target per window,
// so it holds no pointer; the ghosts an epoch locked, when they are not
// the layout's, are kept aside (casperWin.ghostLocks).
type ctarget uint8

const (
	tsLocked    ctarget = 1 << iota // a passive epoch covers the target
	tsViaAll                        // the epoch is lockall's
	tsExcl                          // the epoch's lock is exclusive
	tsGhostsLkd                     // ghost locks issued on the target's window
	tsDynamicOK                     // a flush completed: static-binding-free interval open
)

func (ts ctarget) has(f ctarget) bool { return ts&f != 0 }

// lockType is the lock the target's epoch takes on its ghosts.
func (ts ctarget) lockType() mpi.LockType {
	if ts.has(tsExcl) {
		return mpi.LockExclusive
	}
	return mpi.LockShared
}

type lbCount struct{ ops, bytes int64 }

// layoutFor returns the window's routing layout: for every user target
// the shared-segment base offset (from the exchanged sizes), the ghost
// set and bindings as internal-comm ranks, and the segment chunking.
// Every member passes the sizes it gathered — the same vector — and the
// first one through builds the layout for all.
func (m *winMeta) layoutFor(d *deployment, sizes []int) []tinfo {
	if m.layout == nil {
		m.layout = m.buildLayout(d, sizes)
	}
	return m.layout
}

func (m *winMeta) buildLayout(d *deployment, sizes []int) []tinfo {
	align := func(x int) int { return (x + mpi.MaxBasicSize - 1) / mpi.MaxBasicSize * mpi.MaxBasicSize }
	layout := make([]tinfo, len(m.users))
	userRank := make([]int, d.place.N()) // world rank -> user comm rank
	for t, wr := range m.users {
		userRank[wr] = t
	}
	// Every ghost as an internal-comm rank, in d.ghosts order: a node's
	// ghost set is a window into this list.
	ghosts := make([]int, len(d.ghosts))
	for i, g := range d.ghosts {
		ghosts[i] = m.internalIdx[g]
	}
	g0 := 0
	for node, winUsers := range m.usersByNode {
		ng := len(d.ghostsByNode[node])
		nodeGhosts := ghosts[g0 : g0+ng : g0+ng]
		g0 += ng
		// Walk the node window's users in world-rank order, accumulating
		// 16-aligned offsets exactly as WinAllocateShared does (ghosts
		// contribute zero bytes).
		off := 0
		for i, wr := range winUsers {
			t := userRank[wr]
			ti := &layout[t]
			*ti = tinfo{
				rank:         t,
				world:        wr,
				node:         node,
				base:         off,
				size:         sizes[t],
				ghosts:       nodeGhosts,
				bound:        m.internalIdx[d.bound[wr]],
				selfInternal: m.internalIdx[wr],
			}
			if m.nLock > 0 {
				ti.lockWinIdx = i % m.nLock
			}
			off += align(sizes[t])
		}
		chunk := align((off + d.cfg.NumGhosts - 1) / d.cfg.NumGhosts)
		if chunk == 0 {
			chunk = mpi.MaxBasicSize
		}
		for _, wr := range winUsers {
			ti := &layout[userRank[wr]]
			ti.nodeTotal = off
			ti.chunk = chunk
		}
	}
	return layout
}

func (cw *casperWin) target(t int) *ctarget { return &cw.targets[t] }

// lookupTarget is target for a t that may be out of range, which maps to
// nil so callers keep their own diagnostics.
func (cw *casperWin) lookupTarget(t int) *ctarget {
	if t < 0 || t >= len(cw.targets) {
		return nil
	}
	return &cw.targets[t]
}

// resetTarget drops target t's expansion-side epoch state.
func (cw *casperWin) resetTarget(t int) {
	cw.targets[t] = 0
	delete(cw.ghostLocks, t)
}

// lockedGhosts returns the internal ranks locked for target t this epoch:
// the layout's ghosts (every epoch of a world without a detected failure)
// unless ghostLocks holds others.
func (cw *casperWin) lockedGhosts(t int) []int {
	if gs := cw.ghostLocks[t]; gs != nil {
		return gs
	}
	return cw.layout[t].ghosts
}

// setGhostLocks records gs as the internal ranks locked for target t this
// epoch, or forgets them when they are the layout's ghosts.
func (cw *casperWin) setGhostLocks(t int, gs []int) {
	if &gs[0] == &cw.layout[t].ghosts[0] {
		delete(cw.ghostLocks, t)
		return
	}
	if cw.ghostLocks == nil {
		cw.ghostLocks = make(map[int][]int)
	}
	cw.ghostLocks[t] = gs
}

// winFor returns the internal window carrying operations to target t
// under the current epoch: the target's overlapping lock window for
// lock epochs (and lockall when translated to locks, III-C-3), the
// shared active window otherwise.
func (cw *casperWin) winFor(t int, ts *ctarget) *mpi.Win {
	w := cw.lookupWin(t, ts)
	if w == nil {
		panic("casper: no internal window for current epoch (check epochs_used hint)")
	}
	return w
}

// lookupWin is winFor returning nil where winFor panics. A target is
// covered by lockall exactly when its state is viaAll.
func (cw *casperWin) lookupWin(t int, ts *ctarget) *mpi.Win {
	if ts != nil && ts.has(tsLocked) && (!ts.has(tsViaAll) || cw.epochs.lock) {
		// lockall is translated to per-target locks on the overlapping
		// windows when lock epochs are declared too, to avoid permission
		// conflicts with them.
		return cw.lockWins[cw.layout[t].lockWinIdx]
	}
	return cw.active
}

// ensureGhostLocks opens the passive epoch toward all ghosts of t's node
// on t's window, once per epoch ("Casper will internally lock all ghost
// processes on a node", III-B). After a detected ghost failure only the
// surviving ghosts (or, fully degraded, the target itself) are locked;
// the exact set is recorded so Unlock releases what was taken. It
// reports whether it made the call.
func (cw *casperWin) ensureGhostLocks(t int, ts *ctarget, w *mpi.Win) bool {
	if ts.has(tsGhostsLkd) || w == cw.active {
		// The active window holds a standing lockall; per-ghost lock
		// state is created lazily by the ops themselves.
		return false
	}
	ghosts := cw.progressRanks(&cw.layout[t])
	w.LockEach(ghosts, ts.lockType(), mpi.AssertNone)
	cw.setGhostLocks(t, ghosts)
	*ts |= tsGhostsLkd
	return true
}

// reclaimEpochLocks re-opens a passive epoch's lock set mid-epoch after
// a detected ghost failure: any live progress rank for the target not
// locked when the epoch opened is locked now and added to the target's
// ghostLocks, so in-flight and future operations of the *current*
// epoch reroute immediately instead of waiting for the epoch boundary.
// The grant cannot deadlock — the lock manager at the dead ghost has
// already reclaimed its holds and admitted its queue (see
// mpi/lock.go), and the surviving ghost's manager orders this request
// like any other. No-op while every originally locked ghost is alive. It
// reports whether it made a call.
func (cw *casperWin) reclaimEpochLocks(t int, ts *ctarget, w *mpi.Win) (relocked bool) {
	if !ts.has(tsGhostsLkd) || w == cw.active || !cw.p.r.World().AnyHealthFailure() {
		return false
	}
	for _, g := range cw.progressRanks(&cw.layout[t]) {
		locked := cw.lockedGhosts(t)
		have := false
		for _, l := range locked {
			if l == g {
				have = true
				break
			}
		}
		if have {
			continue
		}
		w.Lock(g, ts.lockType(), mpi.AssertNone)
		// Full-slice expression: the layout's ghost list is shared, so the
		// append must copy.
		cw.setGhostLocks(t, append(locked[:len(locked):len(locked)], g))
		cw.p.r.Count(mpi.EpochRelocks, 1)
		relocked = true
	}
	return relocked
}

// progressRanks returns the internal-comm ranks providing target-side
// progress for t's node: its ghosts normally, the surviving subset
// after detected failures, or the target user process itself (falling
// back to Original-mode progress) when the node has lost every ghost.
// The lists built after a failure are cached until the detector's
// verdicts change and shared by every caller, so none may write to them;
// each call that finds the node degraded still counts.
func (cw *casperWin) progressRanks(ti *tinfo) []int {
	w := cw.p.r.World()
	if !w.AnyHealthFailure() {
		return ti.ghosts
	}
	if v := w.HealthVerdicts(); cw.alive == nil || v != cw.aliveAt {
		cw.alive, cw.aliveAt = make([][]int, cw.p.d.place.NodesUsed()), v
	}
	alive := cw.alive[ti.node]
	if alive == nil {
		alive = []int{} // built: no ghost of the node survives until one is appended
		for _, g := range ti.ghosts {
			if !w.HealthFailed(cw.internal.WorldRank(g)) {
				alive = append(alive, g)
			}
		}
		cw.alive[ti.node] = alive
	}
	if len(alive) > 0 {
		return alive
	}
	cw.p.r.Count(mpi.Degraded, 1)
	if cw.selves == nil {
		cw.selves = make([]int, len(cw.layout))
		for i := range cw.layout {
			cw.selves[i] = cw.layout[i].selfInternal
		}
	}
	return cw.selves[ti.rank : ti.rank+1 : ti.rank+1]
}

// progressTarget maps a preferred routing choice to a live one. The
// preference stands unless that ghost was declared dead; the substitute
// is a deterministic function of the target alone, so every origin
// redirects a given target's operations to the same surviving ghost and
// the static-binding ordering rules for accumulates (III-B) carry over.
func (cw *casperWin) progressTarget(ti *tinfo, preferred int) int {
	w := cw.p.r.World()
	if !w.AnyHealthFailure() {
		return preferred
	}
	if !w.HealthFailed(cw.internal.WorldRank(preferred)) {
		return preferred
	}
	if cw.rebound == nil {
		cw.rebound = make([]bool, len(cw.layout))
	}
	if !cw.rebound[ti.rank] {
		cw.rebound[ti.rank] = true
		cw.p.r.Count(mpi.Rebinds, 1)
	}
	alive := cw.progressRanks(ti)
	return alive[cw.p.d.userLocalIndex(ti.world)%len(alive)]
}

// rerouteGhost is the window failover hook (mpi.Win.SetReroute): when a
// stream's target ghost dies with operations still in flight, pick the
// surviving internal rank exposing the same node segment. Ranks are
// internal-comm ranks; disp is the absolute node-segment offset, which
// identifies the user target whose routing preference decides the
// replacement (so rerouted and freshly routed operations agree).
func (cw *casperWin) rerouteGhost(origin, oldTarget, disp int) (int, bool) {
	deadWorld := cw.internal.WorldRank(oldTarget)
	node := cw.p.d.place.Node(deadWorld)
	pick := func(ti *tinfo) (int, bool) {
		nt := cw.progressTarget(ti, oldTarget)
		if nt == oldTarget {
			return 0, false
		}
		return nt, true
	}
	var fallback *tinfo
	for t := range cw.layout {
		ti := &cw.layout[t]
		if ti.node != node {
			continue
		}
		if fallback == nil {
			fallback = ti
		}
		end := ti.base + ti.size
		if ti.size == 0 {
			end = ti.base + 1
		}
		if disp >= ti.base && disp < end {
			return pick(ti)
		}
	}
	if fallback != nil {
		// Displacement lands in alignment padding; every target of the
		// node shares the same ghost set, so any of them routes it.
		return pick(fallback)
	}
	return 0, false
}

// flushRanks is the set of internal ranks cw.Flush must drain for
// target t: the ghosts locked this epoch (dead ones included — their
// outstanding operations complete through reroute or synthesized acks
// into the same completion sets), plus the degraded self target on the
// active window.
func (cw *casperWin) flushRanks(t int, ts *ctarget, w *mpi.Win) []int {
	ti := &cw.layout[t]
	base := ti.ghosts
	if ts != nil {
		base = cw.lockedGhosts(t)
	}
	if cw.sh != nil && w == cw.active && cw.sh.everDeg[ti.node] {
		// The node ran degraded at some point: operations may be
		// pending at the target itself, so flushes must drain it too.
		found := false
		for _, g := range base {
			if g == ti.selfInternal {
				found = true
				break
			}
		}
		if !found {
			base = append(append([]int(nil), base...), ti.selfInternal)
		}
	}
	if w != cw.active || !cw.p.r.World().AnyHealthFailure() {
		return base
	}
	alive := cw.progressRanks(ti)
	if len(alive) == 1 && alive[0] == ti.selfInternal {
		for _, g := range base {
			if g == ti.selfInternal {
				return base
			}
		}
		return append(append([]int(nil), base...), ti.selfInternal)
	}
	return base
}

// --- Synchronization translation (Section III-C) ----------------------

// Fence translates MPI_WIN_FENCE to flushall + barrier + win_sync on the
// active window's standing lockall (III-C-1). The asserts recover the
// skipped work exactly as the paper describes.
func (cw *casperWin) Fence(assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.fence, EpochFence)
	if !assert.Has(mpi.ModeNoPrecede) {
		cw.active.FlushAll()
	}
	skipSync := assert.Has(mpi.ModeNoPrecede) && assert.Has(mpi.ModeNoStore) &&
		assert.Has(mpi.ModeNoPut)
	if !skipSync {
		cw.comm.Barrier()
		cw.active.Sync()
	}
	cw.fenceActive = !assert.Has(mpi.ModeNoSucceed)
	cw.settle()
	cw.resetDynamic()
	cw.snapshotEpoch()
}

// Post opens an exposure epoch: with ghosts handling all data movement,
// the target only notifies the origins (send-recv synchronization,
// III-C-2).
func (cw *casperWin) Post(group []int, assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.pscw, EpochPSCW)
	if cw.exposureGroup != nil {
		cw.misuse("casper: Post with exposure epoch open")
	}
	cw.exposureGroup = append([]int(nil), group...)
	if !assert.Has(mpi.ModeNoCheck) {
		for _, o := range group {
			cw.comm.Send(o, tagPSCWPost, nil)
		}
	}
}

// Start opens an access epoch, waiting for the targets' posts unless
// MPI_MODE_NOCHECK promises external synchronization.
func (cw *casperWin) Start(group []int, assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.pscw, EpochPSCW)
	if cw.accessGroup != nil {
		cw.misuse("casper: Start with access epoch open")
	}
	cw.accessGroup = append([]int(nil), group...)
	if !assert.Has(mpi.ModeNoCheck) {
		for _, t := range group {
			cw.comm.Recv(t, tagPSCWPost)
		}
	}
}

// Complete closes the access epoch: flush the ghosts (remote completion
// — stronger than MPI requires, as the paper notes), then notify the
// targets.
func (cw *casperWin) Complete() {
	if cw.accessGroup == nil {
		cw.misuse("casper: Complete without access epoch")
	}
	cw.active.FlushAll()
	for _, t := range cw.accessGroup {
		cw.comm.Send(t, tagPSCWDone, nil)
	}
	cw.accessGroup = nil
	cw.settle()
	cw.resetDynamic()
	cw.snapshotEpoch()
}

// Wait closes the exposure epoch once every origin has completed; data
// is already remotely complete because origins flushed before notifying.
func (cw *casperWin) Wait() {
	if cw.exposureGroup == nil {
		cw.misuse("casper: Wait without exposure epoch")
	}
	for _, o := range cw.exposureGroup {
		cw.comm.Recv(o, tagPSCWDone)
	}
	cw.user.Sync()
	cw.exposureGroup = nil
}

// The passive-target calls below check and change the call side when they
// are made and defer the rest (mpi.Win.Defer): what they translate into
// reads detector verdicts and the shepherd's staged bindings, and changes
// what the shepherd's sweeps read (lockHolds), so the event loop expands
// it where the eager process would make it (Expand). A completion whose
// return lets the caller read what its ops changed (epHeld, or a Flush of
// the caller itself) settles after deferring, which returns at the eager
// instant. When the rank does not queue, the call settles and runs the
// expansion in the process.

// Lock opens a passive epoch to one user target by locking all ghosts of
// the target's node on the target's own overlapping window (III-A,
// III-B).
func (cw *casperWin) Lock(t int, lt mpi.LockType, assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.lock, EpochLock)
	f := cw.flags(t)
	if *f&epLocked != 0 {
		cw.misuse(fmt.Sprintf("casper: nested Lock to target %d", t))
	}
	*f |= epLocked
	tag := tagLock
	if lt == mpi.LockExclusive {
		tag |= tagExcl
	}
	if cw.user.Defer(tag, t, false) {
		return
	}
	cw.settle()
	cw.lockGhosts(t, tag)
}

// lockGhosts is Lock's expansion.
func (cw *casperWin) lockGhosts(t int, tag uint8) {
	ts := cw.target(t)
	*ts = tsLocked
	if tag&tagExcl != 0 {
		*ts |= tsExcl
	}
	if cw.sh != nil {
		// Block binding migration of t while the epoch is open (the
		// rebalancer defers to the epoch boundary). If the target is
		// currently routed to itself (degraded node), stage a revert to
		// ghost progress: the epoch's locks live on the ghosts, so its
		// operations must be served there.
		cw.sh.lockHolds[t]++
		ti := &cw.layout[t]
		if cw.sh.serverOf(t, ti) == ti.selfInternal {
			cw.sh.setServer(t, -1)
		}
	}
	cw.ensureGhostLocks(t, ts, cw.winFor(t, ts))
}

// Unlock closes the passive epoch: unlock every ghost (completing all
// operations remotely).
func (cw *casperWin) Unlock(t int) {
	if t < 0 || t >= len(cw.epoch) || cw.epoch[t]&(epLocked|epViaAll) != epLocked {
		cw.misuse(fmt.Sprintf("casper: Unlock of target %d without Lock", t))
	}
	held := cw.release(t)
	if cw.user.Defer(tagUnlock, t, held) {
		return
	}
	cw.settle()
	cw.unlockGhosts(nil, 0, t)
}

// unlockGhosts is Unlock's expansion: it resumes at stage 1 to fold the
// epoch close (snapshotEpoch) once the ghosts are unlocked.
func (cw *casperWin) unlockGhosts(x *mpi.Expansion, st uint8, t int) {
	if st == 0 {
		ts := cw.target(t)
		cw.winFor(t, ts).UnlockEach(cw.lockedGhosts(t))
		cw.resetTarget(t)
		if cw.sh != nil {
			cw.sh.lockHolds[t]--
		}
		if cw.rec != nil && cw.yield(x, 1, 0) {
			return
		}
	}
	cw.snapshotEpoch()
}

// LockAll opens a lockall epoch. When lock epochs are also declared it
// is converted to a series of per-target ghost locks on the overlapping
// windows (III-C-3); otherwise it rides the active window's standing
// lockall. Either way it only opens the call side: each target's state
// opens at its first use.
func (cw *casperWin) LockAll(assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.lockall, EpochLockAll)
	if cw.lockAllActive {
		cw.misuse("casper: nested LockAll")
	}
	cw.lockAllActive = true
}

// UnlockAll closes the lockall epoch, completing all operations.
func (cw *casperWin) UnlockAll() {
	if !cw.lockAllActive {
		cw.misuse("casper: UnlockAll without LockAll")
	}
	wait := cw.holds > 0
	for t, f := range cw.epoch {
		if f&epViaAll != 0 {
			cw.release(t)
		}
	}
	cw.lockAllActive = false
	if cw.user.Defer(tagUnlockAll, 0, wait) {
		return
	}
	cw.settle()
	cw.unlockAll(nil, 0, 0)
}

// unlockAll is UnlockAll's expansion from target from on: it stops when
// the queue has no room, resuming at the target it stopped at, and
// resumes at stage 1 to fold the epoch close.
func (cw *casperWin) unlockAll(x *mpi.Expansion, st uint8, from int) {
	if st == 0 {
		if cw.epochs.lock {
			for t := from; t < len(cw.targets); t++ { // ascending target order
				ts := cw.targets[t]
				if ts.has(tsViaAll) && ts.has(tsLocked) {
					if x != nil && !x.Room(1) {
						x.Again(0, t)
						return
					}
					if ts.has(tsGhostsLkd) {
						cw.lockWins[cw.layout[t].lockWinIdx].UnlockEach(cw.lockedGhosts(t))
					}
					cw.resetTarget(t)
				}
			}
		} else {
			cw.active.FlushAll()
			for t := range cw.targets {
				if cw.targets[t].has(tsViaAll) {
					cw.resetTarget(t)
				}
			}
		}
		if cw.rec != nil && cw.yield(x, 1, 0) {
			return
		}
	}
	cw.snapshotEpoch()
}

// Flush completes all operations to target t at origin and target, and —
// by forcing lock acquisition on every ghost — opens the
// static-binding-free interval in which dynamic load balancing of
// PUT/GET is legal (III-B-3).
func (cw *casperWin) Flush(t int) {
	tag := tagFlush
	if t < 0 || t >= len(cw.epoch) || cw.epoch[t]&epLocked == 0 {
		switch {
		case cw.lockAllActive:
			*cw.flags(t) |= epLocked | epViaAll // opens the lazy per-target state
			tag |= tagOpens
		case cw.fenceActive:
			cw.flags(t) // flush rides the active window
		default:
			cw.misuse(fmt.Sprintf("casper: Flush of target %d without passive epoch", t))
		}
	}
	wait := cw.epoch[t]&epHeld != 0 || t == cw.comm.Rank()
	if wait {
		cw.unhold(t)
	}
	if cw.user.Defer(tag, t, wait) {
		return
	}
	cw.settle()
	cw.flushTarget(nil, 0, t, tag)
}

// flushTarget is Flush's expansion.
func (cw *casperWin) flushTarget(x *mpi.Expansion, st uint8, t int, tag uint8) {
	ts := cw.target(t)
	if st == 0 && tag&tagOpens != 0 {
		openViaAll(ts)
	}
	cw.flushGhosts(x, st, t, ts, 0)
}

// flushGhosts flushes target t's ghosts, forcing their locks, from stage
// st on, and reports whether the expansion stopped to resume at pos:
// after the locks it took (stages 1 and 2, see touchGhosts), or with no
// room left in the queue part way through the ghosts (stage 3, which
// resumes the walk over the same list, cw.flushing).
func (cw *casperWin) flushGhosts(x *mpi.Expansion, st uint8, t int, ts *ctarget, pos int) bool {
	w := cw.winFor(t, ts)
	gs, i := cw.flushing, cw.flushNext
	if st < 3 {
		if ts.has(tsLocked) && cw.touchGhosts(x, st, t, ts, w, pos) {
			return true
		}
		gs, i = cw.flushRanks(t, ts, w), 0
	}
	for ; i < len(gs); i++ {
		if x != nil && !x.Room(2) {
			cw.flushing, cw.flushNext = gs, i
			x.Again(3, pos)
			return true
		}
		w.Acquire(gs[i])
		w.Flush(gs[i])
	}
	cw.flushing = nil
	*ts |= tsDynamicOK
	return false
}

// touchGhosts takes the ghost locks target t's epoch owes at its first
// touch (stage 0), then relocks what a detected failure took (stage 1),
// and reports whether the expansion stopped after either, to resume at
// the next stage and pos.
func (cw *casperWin) touchGhosts(x *mpi.Expansion, st uint8, t int, ts *ctarget, w *mpi.Win, pos int) bool {
	if st == 0 && cw.ensureGhostLocks(t, ts, w) && cw.yield(x, 1, pos) {
		return true
	}
	return st <= 1 && cw.reclaimEpochLocks(t, ts, w) && cw.yield(x, 2, pos)
}

// FlushAll flushes every target this origin has touched.
func (cw *casperWin) FlushAll() {
	wait := cw.holds > 0
	if wait {
		for t := range cw.epoch {
			cw.unhold(t)
		}
	}
	if cw.user.Defer(tagFlushAll, 0, wait) {
		return
	}
	cw.settle()
	cw.flushAll(nil, 0, 0)
}

// flushAll is FlushAll's expansion from target from on: each locked
// target's flushes read the detector where the previous target's flushes
// have returned, so the expansion resumes there (stage 0 at the next
// target), as it does after the ghost locks it takes for one
// (touchGhosts). Where nothing it reads can change meanwhile it stops
// only when the queue has no room, and resumes at the target it stopped
// at.
func (cw *casperWin) flushAll(x *mpi.Expansion, st uint8, from int) {
	for t := from; t < len(cw.targets); t++ { // ascending target order
		ts := &cw.targets[t]
		if !ts.has(tsLocked) {
			continue
		}
		if st == 0 && x != nil && !x.Room(2) {
			x.Again(0, t)
			return
		}
		if cw.flushGhosts(x, st, t, ts, t) || cw.yield(x, 0, t+1) {
			return
		}
		st = 0
	}
	if cw.active != nil {
		cw.active.FlushAll()
	}
}

// Expand implements mpi.Expander: the event loop has reached a deferred
// call, at the pop where the eager process makes what it translates into.
func (cw *casperWin) Expand(x *mpi.Expansion) bool {
	tag, t, st := x.Tag(), x.Target(), x.Stage()
	switch tag & tagCall {
	case tagOp:
		kind, op, disp, dt, src, dst, cmp := x.Op()
		return cw.routeOp(x, st, tag, kind, op, t, disp, dt, src, dst, cmp)
	case tagLock:
		cw.lockGhosts(t, tag)
	case tagUnlock:
		cw.unlockGhosts(x, st, t)
	case tagFlush:
		cw.flushTarget(x, st, t, tag)
	case tagFlushAll:
		cw.flushAll(x, st, x.Pos())
	case tagUnlockAll:
		cw.unlockAll(x, st, x.Pos())
	}
	return false
}

// yield ends an expansion stage that made MPI calls when what comes next
// reads what changes while they run (volatile), which it must read once
// they return. It reports true when the call is deferred: the rest is
// then expanded from stage and pos at that pop (mpi.Expansion.Again). In
// the process (x nil) it settles the calls queued meanwhile and reports
// false: the rest runs on.
func (cw *casperWin) yield(x *mpi.Expansion, stage uint8, pos int) bool {
	if !cw.volatile {
		return false
	}
	if x == nil {
		cw.settle()
		return false
	}
	x.Again(stage, pos)
	return true
}

// FlushLocal completes operations locally.
func (cw *casperWin) FlushLocal(t int) {
	cw.settle()
	if ts := cw.lookupTarget(t); ts != nil && ts.has(tsLocked) {
		cw.winFor(t, ts).FlushLocal(0)
	}
}

// FlushLocalAll completes all operations locally.
func (cw *casperWin) FlushLocalAll() {
	if cw.active != nil {
		cw.active.FlushLocalAll()
	}
}

// Sync issues the memory barrier on the user window.
func (cw *casperWin) Sync() { cw.user.Sync() }

// Free releases the window: the ghosts rejoin (via the sequencer) to
// free the internal overlapping windows and the node shared window,
// then the user-visible window is freed among the users. Collective
// over the window's user communicator.
func (cw *casperWin) Free() {
	if cw.freed {
		cw.misuse("casper: Free called twice")
	}
	cw.settle()
	cw.freed = true
	if cw.comm.Rank() == 0 {
		cw.p.d.sendCmd(encodeFreeCmd(cw.meta.key, cw.meta.idx))
	}
	if cw.active != nil {
		cw.active.UnlockAll()
	}
	// Same order as ghostWinSet.free.
	for _, w := range cw.lockWins {
		w.Free()
	}
	if cw.active != nil {
		cw.active.Free()
	}
	cw.shared.Free()
	cw.user.Free()
}

func (cw *casperWin) requireEpoch(declared bool, name string) {
	if !declared {
		cw.misuse(fmt.Sprintf("casper: %s epoch used but not declared in %s hint",
			name, InfoEpochsUsed))
	}
}

// misuse panics with msg where the eager call does: once the calls made
// before it are done.
func (cw *casperWin) misuse(msg string) {
	cw.settle()
	panic(msg)
}

// settle parks until the rank's deferred and queued calls are done (see
// mpi's issue queue), where the eager process would be.
func (cw *casperWin) settle() { cw.p.r.Proc().Settle() }

// flags returns target t's call-side flags. An out-of-range t panics as
// indexing does, once settled.
func (cw *casperWin) flags(t int) *uint8 {
	if t < 0 || t >= len(cw.epoch) {
		cw.settle()
	}
	return &cw.epoch[t]
}

// hold marks target t's next completion as one the caller may read the
// effect of (epHeld).
func (cw *casperWin) hold(t int) {
	if cw.epoch[t]&epHeld == 0 {
		cw.epoch[t] |= epHeld
		cw.holds++
	}
}

// unhold clears t's mark.
func (cw *casperWin) unhold(t int) {
	if cw.epoch[t]&epHeld != 0 {
		cw.epoch[t] &^= epHeld
		cw.holds--
	}
}

// release closes t's call side and reports whether it was held.
func (cw *casperWin) release(t int) (held bool) {
	held = cw.epoch[t]&epHeld != 0
	cw.unhold(t)
	cw.epoch[t] = 0
	return held
}

// snapshotEpoch folds this rank's region guards at an epoch close —
// the consistency point at which the bound ghost replicates the rank's
// window state to its buddy (see recover.go). No-op unless the fault
// plan schedules AppCrashes.
func (cw *casperWin) snapshotEpoch() {
	if cw.rec != nil {
		cw.rec.snapshot(cw.p.r.Rank())
	}
}

func (cw *casperWin) resetDynamic() {
	for t := range cw.targets {
		cw.targets[t] &^= tsDynamicOK
	}
}

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
	// failed over once, and the per-node load-balancing counters.
	rebound []bool      // per user comm rank
	nodeLB  [][]lbCount // per node, per ghost of the node

	// Epoch state.
	fenceActive   bool
	lockAllActive bool
	accessGroup   []int
	exposureGroup []int
	// targets holds per-target epoch state indexed by user comm rank,
	// by value; the zero ctarget means "untouched". A flat slice keeps
	// the per-op epoch lookup off the map hash path.
	targets []ctarget
	freed   bool

	// Request-collection state for RPut/RGet.
	collectReqs bool
	collecting  []*mpi.RMARequest

	// routeBuf is the scratch slice route() returns its pieces in. The
	// pieces are consumed synchronously inside redirect() before the next
	// route() call on this (per-rank) handle, so one buffer serves every
	// operation without allocating.
	routeBuf []piece

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

// ctarget is per-target epoch state at this origin.
type ctarget struct {
	locked    bool
	lt        mpi.LockType
	viaAll    bool
	ghostsLkd bool // ghost locks issued on the target's window
	dynamicOK bool // a flush completed: static-binding-free interval open

	// lockedGhosts is exactly which internal ranks we locked this epoch;
	// nil means the layout's ghosts (every epoch of a world without a
	// detected failure). It is materialized only to differ from them.
	lockedGhosts []int
}

type lbCount struct{ ops, bytes int64 }

// layoutFor returns the window's routing layout: for every user target
// the shared-segment base offset (from the exchanged sizes), the ghost
// set and bindings as internal-comm ranks, and the segment chunking.
// Every member passes the sizes it gathered — the same vector — and the
// first one through builds the layout for all.
func (m *winMeta) layoutFor(d *deployment, sizes []int) []tinfo {
	m.layoutOnce.Do(func() { m.layout = m.buildLayout(d, sizes) })
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

// lockedGhosts returns the internal ranks locked for target t this epoch.
func (cw *casperWin) lockedGhosts(t int, ts *ctarget) []int {
	if ts.lockedGhosts != nil {
		return ts.lockedGhosts
	}
	return cw.layout[t].ghosts
}

// winFor returns the internal window carrying operations to target t
// under the current epoch: the target's overlapping lock window for
// lock epochs (and lockall when translated to locks, III-C-3), the
// shared active window otherwise.
func (cw *casperWin) winFor(t int, ts *ctarget) *mpi.Win {
	if ts != nil && ts.locked && !ts.viaAll {
		return cw.lockWins[cw.layout[t].lockWinIdx]
	}
	if cw.lockAllActive && cw.epochs.lock {
		// lockall translated to per-target locks on the overlapping
		// windows to avoid permission conflicts with lock epochs.
		return cw.lockWins[cw.layout[t].lockWinIdx]
	}
	if cw.active == nil {
		panic("casper: no internal window for current epoch (check epochs_used hint)")
	}
	return cw.active
}

// ensureGhostLocks opens the passive epoch toward all ghosts of t's node
// on t's window, once per epoch ("Casper will internally lock all ghost
// processes on a node", III-B). After a detected ghost failure only the
// surviving ghosts (or, fully degraded, the target itself) are locked;
// the exact set is recorded so Unlock releases what was taken.
func (cw *casperWin) ensureGhostLocks(t int, ts *ctarget, w *mpi.Win) {
	if ts.ghostsLkd || w == cw.active {
		// The active window holds a standing lockall; per-ghost lock
		// state is created lazily by the ops themselves.
		return
	}
	ti := &cw.layout[t]
	ghosts := cw.progressRanks(ti)
	w.LockEach(ghosts, ts.lt, mpi.AssertNone)
	ts.lockedGhosts = nil
	if &ghosts[0] != &ti.ghosts[0] {
		ts.lockedGhosts = ghosts // not the layout's list: progressRanks built it for us
	}
	ts.ghostsLkd = true
}

// reclaimEpochLocks re-opens a passive epoch's lock set mid-epoch after
// a detected ghost failure: any live progress rank for the target not
// locked when the epoch opened is locked now and added to
// lockedGhosts, so in-flight and future operations of the *current*
// epoch reroute immediately instead of waiting for the epoch boundary.
// The grant cannot deadlock — the lock manager at the dead ghost has
// already reclaimed its holds and admitted its queue (see
// mpi/lock.go), and the surviving ghost's manager orders this request
// like any other. No-op while every originally locked ghost is alive.
func (cw *casperWin) reclaimEpochLocks(t int, ts *ctarget, w *mpi.Win) {
	if !ts.ghostsLkd || w == cw.active || !cw.p.r.World().AnyHealthFailure() {
		return
	}
	for _, g := range cw.progressRanks(&cw.layout[t]) {
		locked := cw.lockedGhosts(t, ts)
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
		w.Lock(g, ts.lt, mpi.AssertNone)
		// Full-slice expression: the layout's ghost list is shared, so the
		// append must copy.
		ts.lockedGhosts = append(locked[:len(locked):len(locked)], g)
		cw.p.r.World().NoteEpochRelock(cw.p.r.Rank())
	}
}

// progressRanks returns the internal-comm ranks providing target-side
// progress for t's node: its ghosts normally, the surviving subset
// after detected failures, or the target user process itself (falling
// back to Original-mode progress) when the node has lost every ghost.
func (cw *casperWin) progressRanks(ti *tinfo) []int {
	w := cw.p.r.World()
	if !w.AnyHealthFailure() {
		return ti.ghosts
	}
	var alive []int
	for _, g := range ti.ghosts {
		if !w.HealthFailed(cw.internal.WorldRank(g)) {
			alive = append(alive, g)
		}
	}
	if len(alive) == 0 {
		cw.p.stats.Degraded++
		return []int{ti.selfInternal}
	}
	return alive
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
		w.NoteRebind(cw.p.r.Rank())
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
		base = cw.lockedGhosts(t, ts)
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
	cw.resetDynamic()
	cw.snapshotEpoch()
}

// Post opens an exposure epoch: with ghosts handling all data movement,
// the target only notifies the origins (send-recv synchronization,
// III-C-2).
func (cw *casperWin) Post(group []int, assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.pscw, EpochPSCW)
	if cw.exposureGroup != nil {
		panic("casper: Post with exposure epoch open")
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
		panic("casper: Start with access epoch open")
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
		panic("casper: Complete without access epoch")
	}
	cw.active.FlushAll()
	for _, t := range cw.accessGroup {
		cw.comm.Send(t, tagPSCWDone, nil)
	}
	cw.accessGroup = nil
	cw.resetDynamic()
	cw.snapshotEpoch()
}

// Wait closes the exposure epoch once every origin has completed; data
// is already remotely complete because origins flushed before notifying.
func (cw *casperWin) Wait() {
	if cw.exposureGroup == nil {
		panic("casper: Wait without exposure epoch")
	}
	for _, o := range cw.exposureGroup {
		cw.comm.Recv(o, tagPSCWDone)
	}
	cw.user.Sync()
	cw.exposureGroup = nil
}

// Lock opens a passive epoch to one user target by locking all ghosts of
// the target's node on the target's own overlapping window (III-A,
// III-B).
func (cw *casperWin) Lock(t int, lt mpi.LockType, assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.lock, EpochLock)
	ts := cw.target(t)
	if ts.locked {
		panic(fmt.Sprintf("casper: nested Lock to target %d", t))
	}
	ts.locked = true
	ts.viaAll = false
	ts.lt = lt
	ts.ghostsLkd = false
	ts.dynamicOK = false
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
	ts := cw.lookupTarget(t)
	if ts == nil || !ts.locked || ts.viaAll {
		panic(fmt.Sprintf("casper: Unlock of target %d without Lock", t))
	}
	cw.winFor(t, ts).UnlockEach(cw.lockedGhosts(t, ts))
	*ts = ctarget{}
	if cw.sh != nil {
		cw.sh.lockHolds[t]--
	}
	cw.snapshotEpoch()
}

// LockAll opens a lockall epoch. When lock epochs are also declared it
// is converted to a series of per-target ghost locks on the overlapping
// windows (III-C-3); otherwise it rides the active window's standing
// lockall.
func (cw *casperWin) LockAll(assert mpi.Assert) {
	cw.requireEpoch(cw.epochs.lockall, EpochLockAll)
	if cw.lockAllActive {
		panic("casper: nested LockAll")
	}
	cw.lockAllActive = true
}

// UnlockAll closes the lockall epoch, completing all operations.
func (cw *casperWin) UnlockAll() {
	if !cw.lockAllActive {
		panic("casper: UnlockAll without LockAll")
	}
	if cw.epochs.lock {
		for t := range cw.targets { // ascending target order
			ts := &cw.targets[t]
			if ts.viaAll && ts.locked {
				if ts.ghostsLkd {
					cw.lockWins[cw.layout[t].lockWinIdx].UnlockEach(cw.lockedGhosts(t, ts))
				}
				*ts = ctarget{}
			}
		}
	} else {
		cw.active.FlushAll()
		for t := range cw.targets {
			if cw.targets[t].viaAll {
				cw.targets[t] = ctarget{}
			}
		}
	}
	cw.lockAllActive = false
	cw.snapshotEpoch()
}

// Flush completes all operations to target t at origin and target, and —
// by forcing lock acquisition on every ghost — opens the
// static-binding-free interval in which dynamic load balancing of
// PUT/GET is legal (III-B-3).
func (cw *casperWin) Flush(t int) {
	ts := cw.lookupTarget(t)
	if ts == nil || !ts.locked {
		switch {
		case cw.lockAllActive:
			ts = cw.epochStateFor(t) // opens the lazy per-target state
		case cw.fenceActive:
			ts = cw.target(t) // flush rides the active window
		default:
			panic(fmt.Sprintf("casper: Flush of target %d without passive epoch", t))
		}
	}
	w := cw.winFor(t, ts)
	if ts.locked {
		cw.ensureGhostLocks(t, ts, w)
		cw.reclaimEpochLocks(t, ts, w)
	}
	for _, g := range cw.flushRanks(t, ts, w) {
		w.Acquire(g)
		w.Flush(g)
	}
	ts.dynamicOK = true
}

// FlushAll flushes every target this origin has touched.
func (cw *casperWin) FlushAll() {
	for t := range cw.targets { // ascending target order
		ts := &cw.targets[t]
		if !ts.locked {
			continue
		}
		w := cw.winFor(t, ts)
		cw.ensureGhostLocks(t, ts, w)
		cw.reclaimEpochLocks(t, ts, w)
		for _, g := range cw.flushRanks(t, ts, w) {
			w.Acquire(g)
			w.Flush(g)
		}
		ts.dynamicOK = true
	}
	if cw.active != nil {
		cw.active.FlushAll()
	}
}

// FlushLocal completes operations locally.
func (cw *casperWin) FlushLocal(t int) {
	if ts := cw.lookupTarget(t); ts != nil && ts.locked {
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
		panic("casper: Free called twice")
	}
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
		panic(fmt.Sprintf("casper: %s epoch used but not declared in %s hint",
			name, InfoEpochsUsed))
	}
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
		cw.targets[t].dynamicOK = false
	}
}

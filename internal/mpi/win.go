package mpi

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// winGlobal is the collective state of one RMA window.
type winGlobal struct {
	id      int
	w       *World
	comm    *commGlobal
	regions []Region // per comm rank: the exposed memory
	freed   bool

	lockMgrs []*lockManager // per comm rank, lazily created

	// inflight counts operations issued on this window that have not
	// yet been applied at their target; fence closing gates on it
	// draining (the target-side completion guarantee of MPI_WIN_FENCE).
	inflight sim.CompletionSet

	// PSCW bookkeeping (allocated lazily; indexes are comm ranks).
	pscw *pscwGlobal

	// reroute, when set, lets stream failover redirect an op whose
	// target crashed: given the comm ranks of origin and the dead
	// target plus the op's displacement, it returns a surviving comm
	// rank exposing the same memory (Casper's same-node ghosts) or
	// ok=false when no replacement exists.
	reroute func(origin, oldTarget, disp int) (newTarget int, ok bool)

	// onOpDone, when set, fires once per RMA op when it reaches its
	// terminal state (acked or abandoned), with the op's origin and final
	// target comm ranks and displacement. Layered runtimes use it to track
	// per-origin and per-target in-flight counts.
	onOpDone func(origin, target, disp int)

	handles []*Win // every rank's handle, for diagnostics
}

type pscwGlobal struct {
	postSeen []map[int]bool  // [origin][target] -> post notification received
	expected []map[int]int64 // [target][origin] -> op count announced by Complete
	applied  []map[int]int64 // [target][origin] -> PSCW ops applied so far
	sig      sim.Signal      // broadcast on any of the above changing
}

func (g *winGlobal) pscwState() *pscwGlobal {
	if g.pscw == nil {
		n := len(g.comm.ranks)
		g.pscw = &pscwGlobal{
			postSeen: make([]map[int]bool, n),
			expected: make([]map[int]int64, n),
			applied:  make([]map[int]int64, n),
		}
	}
	return g.pscw
}

func (g *winGlobal) lockMgr(target int) *lockManager {
	if g.lockMgrs[target] == nil {
		m := &lockManager{}
		// A manager instantiated after its target was confirmed dead
		// starts in dead mode: there is nothing left to arbitrate. A
		// down-recoverable target is not dead — it will resume.
		if tw := g.comm.ranks[target]; g.w.HealthFailed(tw) && !g.w.ranks[tw].down {
			m.dead = true
		}
		g.lockMgrs[target] = m
	}
	return g.lockMgrs[target]
}

// rankOf returns the Rank object of a comm rank of the window.
func (g *winGlobal) rankOf(commRank int) *Rank {
	return g.w.ranks[g.comm.ranks[commRank]]
}

// Win is one rank's handle on an RMA window; it implements Window.
type Win struct {
	g  *winGlobal
	c  *Comm // this rank's handle on the window communicator
	r  *Rank
	me int // comm rank

	fenceActive bool
	lockAll     bool
	access      *pscwAccess   // open access epoch (Start..Complete)
	exposure    *pscwExposure // open exposure epoch (Post..Wait)
	opSeq       int64

	// Passive-epoch state per target, split by what an epoch actually
	// touches: epoch holds one byte of flags per comm rank — all a lazily
	// locked target that is never used needs — and chans the channel
	// state of the targets that carry a lock request or an operation. Both
	// are allocated on first use (most handles of most windows never
	// issue). chans is a table of the targets the handle touches, in
	// ascending target order, in one of two forms told apart by its
	// length (see channel): a list of the live channels sorted by target
	// (chanState.lock.target) while they are few, as on a Casper internal
	// window, whose origins talk to a ghost or so per node; and, once it
	// would hold more than a quarter of the comm ranks, a slot per comm
	// rank, indexed by target, nil where no channel is live. A dense
	// handle's per-op lookup is one indexed load.
	epoch []uint8
	chans []*chanState
	holds int // targets whose epoch carries epHold

	layer Expander // expands the calls deferred on the handle (see SetExpander)
}

type pscwAccess struct {
	group  []int
	assert Assert
	issued map[int]int64 // per target: ops issued this epoch
}

type pscwExposure struct {
	group  []int
	assert Assert
}

// Passive-epoch flags of one target (Win.epoch). They are process-side
// state: every call updates them when it is made, in call order, and a
// queued call carries what it needs of them (see issue.go).
const (
	epLocked uint8 = 1 << iota // Lock() called (or implied by LockAll)
	epViaAll                   // the implied kind: closed by UnlockAll
	epExcl                     // LockExclusive
	epHold                     // the next completion of the target settles (see holdCompletion)
	epSeen                     // scratch mark of a target list's admission check

	epKinds = epLocked | epViaAll | epExcl // what a channel carries (lockMsg.ep)
)

// chanState is the origin-side state of one (origin, target) channel:
// the lock protocol's message and everything that orders and tracks the
// operations on the wire. It exists from the first lock request or
// operation to the target until the Unlock that closes its epoch. Every
// channel of a lockall epoch is live until UnlockAll, so its size is
// most of an all-to-all world's heap: it is kept within the 128-byte
// size class (TestChanStateSize).
type chanState struct {
	lock    lockMsg
	pending sim.CompletionSet // issued ops whose acks have not landed

	// lastArrival enforces FIFO delivery on the (origin, target)
	// channel: a small message must not overtake a large one, or
	// same-origin accumulate ordering (MPI-3 §11.7.1) would break.
	lastArrival sim.Time

	// wireTail is the last of the ops currently crossing the wire on this
	// channel, which are chained through rmaOp.link. Arrivals are
	// strictly monotone (see lastArrival), so only the chain's head keeps
	// an arrival event in the engine's event queue; each arrival promotes
	// its successor under the seq reserved at send time (see Win.send and
	// rmaOp.promoteWire). Queue residency per channel is O(1) instead of
	// one ladder entry per op on the wire.
	wireTail *rmaOp

	// Deferred acks (see rmaOp.ack): on the plain wire an applied op's ack
	// is no event of its own. lazyN counts the acks deferred and not yet
	// landed, lazyAt and lazySeq are the latest of their (at, seq) keys, and
	// lazySet marks the channel scheduled under that key. They land
	// together (landAcks) where the eager schedule pops the last of them,
	// or with no event at all if that key has passed before anyone waits.
	//
	// Under a fault plan the deferred ops stay listed here, linked through
	// rmaOp.link (each keeping its ack's key there), until their acks land
	// (see deferAck); lazySet is never set.
	lazyAt  sim.Time
	lazySeq uint64
	acks    *rmaOp
	lazyN   int32
	lazySet bool
}

func (w *Win) checkTarget(t int) {
	if t < 0 || t >= len(w.g.comm.ranks) {
		panic(fmt.Sprintf("mpi: window target %d out of range [0,%d)", t, len(w.g.comm.ranks)))
	}
}

// epochOf returns the passive-epoch flags of target t, for writing.
func (w *Win) epochOf(t int) *uint8 {
	w.checkTarget(t)
	if w.epoch == nil {
		w.epoch = make([]uint8, len(w.g.comm.ranks))
	}
	return &w.epoch[t]
}

// epochFlags reads the passive-epoch flags of target t: zero when no
// epoch covers it (no allocation, no bounds panic).
func (w *Win) epochFlags(t int) uint8 {
	if t < 0 || t >= len(w.epoch) {
		return 0
	}
	return w.epoch[t]
}

// channel returns the channel state toward target t, creating it. On a
// dense table with t's channel live — every op of an all-to-all epoch
// after its first to each target — that is one indexed load; the rest is
// addChannel.
func (w *Win) channel(t int) *chanState {
	if c := w.chans; len(c) == len(w.g.comm.ranks) && uint(t) < uint(len(c)) && c[t] != nil {
		return c[t]
	}
	return w.addChannel(t)
}

// addChannel is channel for a target whose channel is listed, or is not
// live yet. A list-form table turns dense when it would hold more than a
// quarter as many channels as the communicator has ranks: past that the
// list, whose capacity runs up to twice its length, saves at most half
// the slots while every op pays a binary search for its channel.
func (w *Win) addChannel(t int) *chanState {
	w.checkTarget(t)
	if w.dense() { // t's slot is empty
		ch := w.newChannel(t)
		w.chans[t] = ch
		return ch
	}
	i, ok := w.chanSlot(t)
	if ok {
		return w.chans[i]
	}
	ch := w.newChannel(t)
	n := len(w.g.comm.ranks)
	if len(w.chans) < n/4 {
		w.chans = slices.Insert(w.chans, i, ch)
		return ch
	}
	dense := make([]*chanState, n)
	for _, c := range w.chans {
		dense[c.lock.target] = c
	}
	dense[t] = ch
	w.chans = dense
	return ch
}

// dense reports whether the channel table holds a slot per comm rank.
func (w *Win) dense() bool { return len(w.chans) == len(w.g.comm.ranks) }

// newChannel makes the channel state toward target t; its lock message
// knows its origin handle and target from the start, so that a list-form
// table can sort by the target.
func (w *Win) newChannel(t int) *chanState {
	return &chanState{lock: lockMsg{win: w, target: int32(t)}}
}

// chanSlot returns where target t's channel is, or would go, in a
// list-form table, and whether it is there.
func (w *Win) chanSlot(t int) (int, bool) {
	lo, hi := 0, len(w.chans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(w.chans[m].lock.target) < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(w.chans) && int(w.chans[lo].lock.target) == t
}

// lookupChannel returns the existing channel state, or nil when the
// target carries no request or operation (no allocation, no bounds
// panic).
func (w *Win) lookupChannel(t int) *chanState {
	if w.dense() {
		if t < 0 || t >= len(w.chans) {
			return nil
		}
		return w.chans[t]
	}
	if i, ok := w.chanSlot(t); ok {
		return w.chans[i]
	}
	return nil
}

// channelFrom returns the live channel toward the lowest target at or
// above t, and that target; nil when there is none. Walks that resume —
// a served UnlockAll or FlushAll — keep the target they reached, not a
// slot: a list-form table shifts its slots as channels come and go.
func (w *Win) channelFrom(t int) (int, *chanState) {
	if w.dense() {
		for ; t < len(w.chans); t++ {
			if ch := w.chans[t]; ch != nil {
				return t, ch
			}
		}
		return t, nil
	}
	if i, _ := w.chanSlot(t); i < len(w.chans) {
		ch := w.chans[i]
		return int(ch.lock.target), ch
	}
	return t, nil
}

// dropChannel forgets target t's channel state, if any. A list keeps its
// capacity for the handle's next epoch.
func (w *Win) dropChannel(t int) {
	if w.dense() {
		w.chans[t] = nil
		return
	}
	if i, ok := w.chanSlot(t); ok {
		w.chans = slices.Delete(w.chans, i, i+1)
	}
}

// Region returns this rank's exposed memory region (used by Casper when
// building overlapping windows over the same memory).
func (w *Win) Region() Region { return w.g.regions[w.me] }

// SetReroute installs the window's failover hook (see winGlobal.reroute).
// The hook is window-global; any handle may install it.
func (w *Win) SetReroute(fn func(origin, oldTarget, disp int) (int, bool)) {
	w.g.reroute = fn
}

// SetOpObserver installs the window's op-terminal hook (see
// winGlobal.onOpDone). The hook is window-global; any handle may
// install it. It runs in engine context — it must not park.
func (w *Win) SetOpObserver(fn func(origin, target, disp int)) {
	w.g.onOpDone = fn
}

// newWin builds the per-rank handle.
func newWin(g *winGlobal, r *Rank) *Win {
	me, ok := g.comm.index[r.id]
	if !ok {
		panic("mpi: rank not in window comm")
	}
	win := &Win{g: g, c: &Comm{g: g.comm, me: me, r: r}, r: r, me: me}
	g.handles = append(g.handles, win)
	return win
}

// winCollective performs the collective creation rendezvous: each rank
// contributes its region; the last arrival assembles the winGlobal.
func (r *Rank) winCollective(c *Comm, reg Region, cost sim.Duration) *Win {
	res := c.collective("MPI_Win_create", reg, cost, func(vals []interface{}) interface{} {
		w := c.g.w
		g := &winGlobal{
			w:        w,
			comm:     c.g,
			regions:  make([]Region, len(vals)),
			lockMgrs: make([]*lockManager, len(vals)),
		}
		w.winSeq++
		g.id = w.winSeq
		w.wins = append(w.wins, g)
		for i, v := range vals {
			if reg, ok := v.(Region); ok { // crashed member exposes nothing
				g.regions[i] = reg
			}
		}
		return g
	})
	return newWin(res.(*winGlobal), r)
}

// WinAllocate implements Env: MPI_WIN_ALLOCATE. Each rank allocates size
// bytes of remotely accessible memory.
func (r *Rank) WinAllocate(c *Comm, size int, info Info) (Window, []byte) {
	w, buf := r.WinAllocateRegion(c, size)
	return w, buf
}

// WinAllocateRegion is WinAllocate returning the concrete *Win (for
// layers that need the full handle, like Casper).
func (r *Rank) WinAllocateRegion(c *Comm, size int) (*Win, []byte) {
	r.settle()
	if size < 0 {
		panic(fmt.Sprintf("mpi: WinAllocate size %d", size))
	}
	seg := r.w.newSegment(size)
	reg := Region{seg: seg, off: 0, n: size}
	w := r.winCollective(c, reg, r.w.net.AllocWinCost(c.Size()))
	return w, reg.Bytes()
}

// WinAllocateShared implements MPI_WIN_ALLOCATE_SHARED: the communicator
// must be intra-node; the ranks' memories are consecutive regions of one
// shared segment, so every rank (including Casper ghosts) can address
// every other rank's portion directly.
func (r *Rank) WinAllocateShared(c *Comm, size int) (*Win, []byte) {
	if size < 0 {
		panic(fmt.Sprintf("mpi: WinAllocateShared size %d", size))
	}
	// Verify the communicator is node-local.
	p := r.w.place
	for _, wr := range c.g.ranks {
		if !p.SameNode(wr, c.g.ranks[0]) {
			panic("mpi: WinAllocateShared on a communicator spanning nodes")
		}
	}
	// Region offsets are aligned to the largest basic datatype so that
	// Casper's segment binding never splits an element between ghosts
	// (Section III-B-2 relies on data alignment).
	sizes := c.AllgatherInt(size)
	total := 0
	offs := make([]int, len(sizes))
	for i, s := range sizes {
		offs[i] = total
		total += (s + MaxBasicSize - 1) / MaxBasicSize * MaxBasicSize
	}
	// One rank's reduce closure allocates the shared segment; everyone
	// shares it via the collective result.
	res := c.collective("MPI_Win_allocate_shared", nil,
		r.w.net.AllocWinCost(c.Size()),
		func([]interface{}) interface{} { return r.w.newSegment(total) })
	seg := res.(*segment)
	reg := Region{seg: seg, off: offs[c.Rank()], n: size}
	w := r.winCollective(c, reg, r.w.net.CreateWinCost(c.Size()))
	return w, reg.Bytes()
}

// WinCreate implements MPI_WIN_CREATE over existing memory: each rank
// exposes the given region. Much cheaper than WinAllocate, which is why
// Casper can afford its overlapping internal windows.
func (r *Rank) WinCreate(c *Comm, reg Region) *Win {
	return r.winCollective(c, reg, r.w.net.CreateWinCost(c.Size()))
}

// Free implements Window: MPI_WIN_FREE (collective).
func (w *Win) Free() {
	w.c.collective("MPI_Win_free", nil, w.c.barrierCost(), nil)
	w.g.freed = true
}

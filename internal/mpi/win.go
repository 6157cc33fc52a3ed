package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// winGlobal is the collective state of one RMA window.
type winGlobal struct {
	id      int
	w       *World
	comm    *commGlobal
	regions []Region // per comm rank: the exposed memory
	info    Info
	// freed is atomic because under sharded execution every member of
	// the MPI_Win_free collective stores it from its own shard
	// goroutine; readers are fault/flow paths and stopped-world
	// diagnostics.
	freed atomic.Bool

	lockMgrs []*lockManager // per comm rank, lazily created

	// inflight counts operations issued on this window that have not
	// yet been applied at their target; fence closing gates on it
	// draining (the target-side completion guarantee of MPI_WIN_FENCE).
	inflight sim.CompletionSet

	// PSCW bookkeeping (allocated lazily; indexes are comm ranks).
	pscw *pscwGlobal

	// Dynamic-window state (MPI_WIN_CREATE_DYNAMIC).
	dynamic  bool
	attached [][]attachment // per comm rank: attached regions by base
	nextBase []int          // per comm rank: next base address

	// reroute, when set, lets stream failover redirect an op whose
	// target crashed: given the comm ranks of origin and the dead
	// target plus the op's displacement, it returns a surviving comm
	// rank exposing the same memory (Casper's same-node ghosts) or
	// ok=false when no replacement exists.
	reroute func(origin, oldTarget, disp int) (newTarget int, ok bool)

	// onOpDone, when set, fires once per RMA op when it reaches its
	// terminal state (acked, abandoned, or dropped for lack of
	// credits), with the op's origin and final target comm ranks and
	// displacement. Layered runtimes use it to track per-origin and
	// per-target in-flight counts.
	onOpDone func(origin, target, disp int)

	handles []*Win // every rank's handle, for diagnostics

	// streams caches the reliable-transport stream of each (origin, target)
	// pair of comm ranks (fault plans only, filled on first use; see
	// relStream). It sits here, not in the handle, because a wide world
	// has a handle per rank per window and most never issue.
	streams [][]*stream
}

type pscwGlobal struct {
	postSeen []map[int]bool  // [origin][target] -> post notification received
	expected []map[int]int64 // [target][origin] -> op count announced by Complete
	applied  []map[int]int64 // [target][origin] -> PSCW ops applied so far
	sig      sim.Signal      // broadcast on any of the above changing
	sigs     []sim.Signal    // sharded: per comm-rank signals (see sigFor)
}

// sigFor returns the PSCW wakeup signal of commRank. The serial engine
// shares one signal across the window; sharded execution gives each
// rank its own, touched only from that rank's engine — Post/Complete
// notifications are routed to the destination rank's engine before
// broadcasting, and each rank waits only on its own signal.
func (g *winGlobal) sigFor(commRank int) *sim.Signal {
	p := g.pscwState()
	if g.w.sharded != nil {
		return &p.sigs[commRank]
	}
	return &p.sig
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

	// Passive-epoch state per target, indexed by comm rank and split by
	// what an epoch actually touches: epoch holds one byte of flags per
	// target — all a lazily locked target that is never used needs — and
	// chans the channel state of the targets that carry a lock request or
	// an operation. Both are allocated on first use (most handles of most
	// windows never issue); flat slices keep the per-op lookup off the map
	// hash path.
	epoch []uint8
	chans []*chanState
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

// Passive-epoch flags of one target (Win.epoch).
const (
	epLocked uint8 = 1 << iota // Lock() called (or implied by LockAll)
	epViaAll                   // the implied kind: closed by UnlockAll
	epExcl                     // LockExclusive
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
	pending sim.CompletionSet // issued ops not yet remotely acked

	// lastArrival enforces FIFO delivery on the (origin, target)
	// channel: a small message must not overtake a large one, or
	// same-origin accumulate ordering (MPI-3 §11.7.1) would break.
	lastArrival sim.Time

	// wireTail is the last of the ops currently crossing the wire on this
	// channel, which are chained through rmaOp.link. Arrivals are
	// strictly monotone (see lastArrival), so only the chain's head keeps
	// an arrival event in the engine's heap; each arrival promotes its
	// successor under the seq reserved at send time (see Win.send and
	// rmaOp.promoteWire). Heap residency per channel is O(1) instead of
	// one entry per op on the wire.
	wireTail *rmaOp
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

// channel returns the channel state toward target t, creating it.
func (w *Win) channel(t int) *chanState {
	w.checkTarget(t)
	if w.chans == nil {
		w.chans = make([]*chanState, len(w.g.comm.ranks))
	}
	ch := w.chans[t]
	if ch == nil {
		ch = &chanState{}
		w.chans[t] = ch
	}
	return ch
}

// lookupChannel returns the existing channel state, or nil when the
// target carries no request or operation (no allocation, no bounds
// panic).
func (w *Win) lookupChannel(t int) *chanState {
	if t < 0 || t >= len(w.chans) {
		return nil
	}
	return w.chans[t]
}

// Region returns this rank's exposed memory region (used by Casper when
// building overlapping windows over the same memory).
func (w *Win) Region() Region { return w.g.regions[w.me] }

// RegionOf returns the exposed region of any comm rank. Within a node
// this corresponds to shared-memory visibility; Casper uses it to build
// its offset translation.
func (w *Win) RegionOf(commRank int) Region { return w.g.regions[commRank] }

// Comm returns this rank's handle on the window communicator.
func (w *Win) Comm() *Comm { return w.c }

// Info returns the info hints the window was created with.
func (w *Win) Info() Info { return w.g.info }

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
	if s := g.w.sharded; s != nil {
		// Members return from the creation collective on their own
		// engines, in the same window.
		s.mu.Lock()
		g.handles = append(g.handles, win)
		s.mu.Unlock()
	} else {
		g.handles = append(g.handles, win)
	}
	return win
}

// winCollective performs the collective creation rendezvous: each rank
// contributes its region; the last arrival assembles the winGlobal.
func (r *Rank) winCollective(c *Comm, reg Region, info Info, cost sim.Duration) *Win {
	res := c.collective("MPI_Win_create", reg, cost, func(vals []interface{}) interface{} {
		w := c.g.w
		g := &winGlobal{
			w:        w,
			comm:     c.g,
			regions:  make([]Region, len(vals)),
			info:     info,
			lockMgrs: make([]*lockManager, len(vals)),
		}
		if s := w.sharded; s != nil {
			s.mu.Lock()
			w.winSeq++
			g.id = w.winSeq
			w.wins = append(w.wins, g)
			s.mu.Unlock()
			// Pre-create everything the epoch code otherwise allocates
			// lazily, so no two shards race to create it mid-window.
			// Dead-mode lock managers are a fault-plan concern, and fault
			// plans never run sharded.
			for i := range g.lockMgrs {
				g.lockMgrs[i] = &lockManager{}
			}
			n := len(c.g.ranks)
			g.pscw = &pscwGlobal{
				postSeen: make([]map[int]bool, n),
				expected: make([]map[int]int64, n),
				applied:  make([]map[int]int64, n),
				sigs:     make([]sim.Signal, n),
			}
			for i := 0; i < n; i++ {
				g.pscw.postSeen[i] = map[int]bool{}
				g.pscw.expected[i] = map[int]int64{}
				g.pscw.applied[i] = map[int]int64{}
			}
		} else {
			w.winSeq++
			g.id = w.winSeq
			w.wins = append(w.wins, g)
		}
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
	w, buf := r.WinAllocateRegion(c, size, info)
	return w, buf
}

// WinAllocateRegion is WinAllocate returning the concrete *Win (for
// layers that need the full handle, like Casper).
func (r *Rank) WinAllocateRegion(c *Comm, size int, info Info) (*Win, []byte) {
	if size < 0 {
		panic(fmt.Sprintf("mpi: WinAllocate size %d", size))
	}
	seg := r.w.newSegment(size)
	reg := Region{seg: seg, off: 0, n: size}
	w := r.winCollective(c, reg, info, r.w.net.AllocWinCost(c.Size()))
	return w, reg.Bytes()
}

// WinAllocateShared implements MPI_WIN_ALLOCATE_SHARED: the communicator
// must be intra-node; the ranks' memories are consecutive regions of one
// shared segment, so every rank (including Casper ghosts) can address
// every other rank's portion directly.
func (r *Rank) WinAllocateShared(c *Comm, size int, info Info) (*Win, []byte) {
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
	w := r.winCollective(c, reg, nil, r.w.net.CreateWinCost(c.Size()))
	w.g.info = info
	return w, reg.Bytes()
}

// WinCreate implements MPI_WIN_CREATE over existing memory: each rank
// exposes the given region. Much cheaper than WinAllocate, which is why
// Casper can afford its overlapping internal windows.
func (r *Rank) WinCreate(c *Comm, reg Region, info Info) *Win {
	return r.winCollective(c, reg, info, r.w.net.CreateWinCost(c.Size()))
}

// Free implements Window: MPI_WIN_FREE (collective).
func (w *Win) Free() {
	w.c.collective("MPI_Win_free", nil, w.c.barrierCost(), nil)
	w.g.freed.Store(true)
}

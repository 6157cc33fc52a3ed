package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Process is the Casper view of one user process. It implements mpi.Env:
// applications written against mpi.Env run unmodified over Casper, with
// MPI_COMM_WORLD transparently replaced by COMM_USER_WORLD and windows
// replaced by redirecting Casper windows — the PMPI interception of
// Section II.
type Process struct {
	r *mpi.Rank
	d *deployment

	finalized bool
	winCounts map[int]int // communicator ID -> Casper windows created on it so far
	stats     Stats
}

// Stats counts Casper-level redirection activity on this process.
type Stats struct {
	Redirected int64 // operations redirected to ghosts
	Split      int64 // extra pieces created by segment splitting
	Dynamic    int64 // operations routed by dynamic load balancing
	SelfLocal  int64 // self put/get completed through shared memory
	Degraded   int64 // routing decisions that fell back to target-side progress (all ghosts of a node dead)
}

var _ mpi.Env = (*Process)(nil)

// Rank implements mpi.Env: the rank in COMM_USER_WORLD.
func (p *Process) Rank() int { return p.d.userComm.Rank() }

// Size implements mpi.Env: the size of COMM_USER_WORLD.
func (p *Process) Size() int { return p.d.userComm.Size() }

// CommWorld implements mpi.Env: COMM_USER_WORLD, not MPI_COMM_WORLD —
// the communicator substitution of Section II-A.
func (p *Process) CommWorld() *mpi.Comm { return p.d.userComm }

// Compute implements mpi.Env.
func (p *Process) Compute(d sim.Duration) { p.r.Compute(d) }

// Now implements mpi.Env.
func (p *Process) Now() sim.Time { return p.r.Now() }

// Underlying returns the wrapped MPI rank (for harness inspection).
func (p *Process) Underlying() *mpi.Rank { return p.r }

// Stats returns the redirection counters.
func (p *Process) Stats() Stats { return p.stats }

// NumGhosts returns the per-node ghost count of this deployment.
func (p *Process) NumGhosts() int { return p.d.cfg.NumGhosts }

// Finalize shuts down the ghost processes. Collective over
// COMM_USER_WORLD; call once, after all windows are done.
func (p *Process) Finalize() {
	if p.finalized {
		panic("casper: Finalize called twice")
	}
	p.finalized = true
	p.d.userComm.Barrier()
	if p.d.userComm.Rank() == 0 {
		// The acting sequencer ghost forwards the shutdown to every
		// other ghost before exiting its own loop.
		p.d.sendCmd([]byte{cmdShutdown})
	}
}

// WinAllocate implements mpi.Env — the heart of the interception
// (Sections II-B, III-A). It
//
//  1. allocates one shared-memory window per node spanning all user
//     memory plus the ghosts' address space,
//  2. creates the internal overlapping windows over MPI_COMM_WORLD
//     (one per user process if lock epochs are declared, plus one for
//     active-target/lockall epochs), in which ghosts expose the whole
//     node segment, and
//  3. creates and returns a window over COMM_USER_WORLD whose operations
//     are redirected to ghosts.
//
// The comm may be COMM_USER_WORLD or any communicator of user
// processes (e.g. from Split) — the Section III-C scenarios need
// windows on disjoint user groups. Window creation is serialized
// globally by the ghost command protocol.
func (p *Process) WinAllocate(comm *mpi.Comm, size int, info mpi.Info) (mpi.Window, []byte) {
	if p.finalized {
		panic("casper: WinAllocate after Finalize")
	}
	switch info.Get(InfoAsyncConfig, "on") {
	case "on":
	case "off":
		// Redirection disabled for this window: plain MPI window over
		// COMM_USER_WORLD, no ghost involvement at all.
		return p.r.WinAllocate(comm, size, info)
	default:
		panic(fmt.Sprintf("casper: bad %s value %q", InfoAsyncConfig,
			info.Get(InfoAsyncConfig, "on")))
	}
	epochs, err := parseEpochs(info.Get(InfoEpochsUsed, DefaultEpochs))
	if err != nil {
		panic(err)
	}
	if p.winCounts == nil {
		p.winCounts = map[int]int{}
	}
	m := p.d.userWindow(comm, p.winCounts[comm.ID()], epochs)
	p.winCounts[comm.ID()]++

	// Summon the ghosts into the creation collectives, via the
	// sequencer so every ghost sees window creations in one global
	// order even when disjoint groups allocate concurrently.
	if comm.Rank() == 0 {
		p.d.sendCmd(m.cmd)
	}

	// Step 1: node shared window (window users + ghosts), Fig. 2.
	node := p.d.place.Node(p.r.Rank())
	nodeComm := p.r.CommFromGroup(m.nodeRanks[node])
	shared, buf := p.r.WinAllocateShared(nodeComm, size, nil)
	root := shared.Region().Root()

	// Step 2: internal overlapping windows over all window users plus
	// all ghosts. Every member exposes the whole node segment: ghosts
	// because they service redirected operations, users so that a node
	// that loses all its ghosts can degrade to target-side progress.
	// Operations target only ghost ranks on these windows while any
	// ghost of the node survives.
	internal := p.r.CommFromGroup(m.internal)
	lockWins := make([]*mpi.Win, m.nLock)
	for i := range lockWins {
		lockWins[i] = p.r.WinCreate(internal, root, nil)
	}
	var activeWin *mpi.Win
	if epochs.needActive() {
		activeWin = p.r.WinCreate(internal, root, nil)
	}

	// Step 3: the user-visible window over the users' communicator.
	userWin := p.r.WinCreate(comm, shared.Region(), info)

	binding := p.d.cfg.Binding
	switch info.Get(InfoBinding, "") {
	case "":
	case "rank":
		binding = BindRank
	case "segment":
		binding = BindSegment
	default:
		panic(fmt.Sprintf("casper: bad %s value %q", InfoBinding, info.Get(InfoBinding, "")))
	}
	lb := p.d.cfg.LoadBalance
	switch info.Get(InfoLoadBalance, "") {
	case "":
	case "static":
		lb = LBStatic
	case "random":
		lb = LBRandom
	case "op":
		lb = LBOpCounting
	case "byte":
		lb = LBByteCounting
	default:
		panic(fmt.Sprintf("casper: bad %s value %q", InfoLoadBalance,
			info.Get(InfoLoadBalance, "")))
	}

	cw := &casperWin{
		p:        p,
		meta:     m,
		epochs:   epochs,
		shared:   shared,
		lockWins: lockWins,
		active:   activeWin,
		user:     userWin,
		comm:     comm,
		internal: internal,
		root:     root,
		binding:  binding,
		lb:       lb,
		targets:  make([]ctarget, comm.Size()),
	}
	cw.layout = m.layoutFor(p.d, comm.AllgatherInt(size))
	if appCrashesPlanned(p.r) {
		// Guard this rank's exposed region for rollback-replay recovery:
		// the bound ghost snapshots it at epoch closes, a buddy ghost on
		// another node holds the replica and replays after a crash.
		rec := recoveryFor(p.r)
		rec.register(p.r.Rank(), p.r.World().GuardRegion(shared.Region()),
			p.d.boundGhost(p.r.Rank()), p.d.buddyGhosts(p.r.Rank()))
		cw.rec = rec
	}
	if p.d.cfg.Overload != nil {
		cw.sh = p.attachOverload(cw)
	}
	if p.r.World().FaultsEnabled() {
		for _, w := range lockWins {
			w.SetReroute(cw.rerouteGhost)
		}
		if activeWin != nil {
			activeWin.SetReroute(cw.rerouteGhost)
		}
	}
	// The active window holds a standing lockall from every user
	// process: fence and PSCW translate onto it without any ghost
	// participation in synchronization (Section III-C-1).
	if activeWin != nil {
		activeWin.LockAll(mpi.AssertNone)
	}
	return cw, buf
}

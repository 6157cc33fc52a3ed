package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Reserved tags on MPI_COMM_WORLD / COMM_USER_WORLD for Casper's
// internal control traffic.
const (
	tagGhostCmd  = 1 << 20 // user -> ghost commands
	tagPSCWPost  = 1<<20 + 1
	tagPSCWDone  = 1<<20 + 2
	tagShutdown  = 1<<20 + 3
	cmdWinCreate = byte(1)
	cmdShutdown  = byte(2)
	cmdWinFree   = byte(3)
	cmdSucceed   = byte(4) // engine-injected: take over as sequencer (fault worlds)
)

// deployment is the per-rank view of the ghost-process carving performed
// at Init (Section II-A): the node-local communicator used for
// shared-memory windows, COMM_USER_WORLD, and this rank's role. The
// carving itself and the window records are world-global (deployShared).
type deployment struct {
	cfg      Config
	place    *cluster.Placement
	world    *mpi.Comm
	nodeComm *mpi.Comm // users + ghosts of this node
	userComm *mpi.Comm // COMM_USER_WORLD (nil on ghosts)

	isGhost bool
	*deployShared

	// journal is the world's replayable command log, through which every
	// command reaches the ghosts (see journal.go).
	journal *cmdJournal
}

// partition is the ghost/user carving of a world, a function of the
// placement and the ghost count alone. It is computed once per world
// and read-only afterwards.
type partition struct {
	ghostsByNode [][]int // node -> ghost world ranks
	usersByNode  [][]int // node -> user world ranks
	maxUsers     int     // max users on any node (internal window count, III-A)

	ghosts   []int // every ghost world rank, ascending
	users    []int // every user world rank, ascending
	localIdx []int // world rank -> position among its node's users (the i of "the ith user process", III-A); -1 for ghosts
	bound    []int // world rank -> statically bound ghost world rank (see bindGhost); -1 for ghosts
}

// deployShared is the part of a deployment that a real Casper computes
// identically on every rank and the simulator, one address space, keeps
// once per world: the partition and one record per Casper window. Every
// rank reaches it through mpi.World.SharedState. Records stay for the
// life of the world, as mpi's own communicator and window registries do.
type deployShared struct {
	numGhosts int
	partition

	byComm map[winID]*winMeta    // user side: (communicator, n-th window on it)
	byKey  map[string][]*winMeta // ghost side: creation key -> records by creation index
}

// winID names a Casper window from the user side without touching its
// member list: window creation is collective, so the n-th Casper window
// a member creates on a communicator is the same window on every member.
type winID struct{ comm, nth int }

// ghostLocalIndices returns the node-local indices (0..ppn-1) reserved
// for ghost processes: the last core of each NUMA domain first, so that
// ghosts are spread across NUMA domains and each can bind to the user
// ranks of its own domain (topology awareness, Section II-A).
func ghostLocalIndices(ppn, numaPerNode, coresPerNUMA, g int) []int {
	if g > ppn {
		g = ppn
	}
	picked := make(map[int]bool, g)
	var out []int
	// Walk domains round-robin, taking from the back of each domain's
	// occupied cores.
	for round := 0; len(out) < g && round <= ppn; round++ {
		for d := 0; d < numaPerNode && len(out) < g; d++ {
			start := d * coresPerNUMA
			end := (d + 1) * coresPerNUMA
			if end > ppn {
				end = ppn
			}
			idx := end - 1 - round
			if idx < start || idx < 0 {
				continue
			}
			if !picked[idx] {
				picked[idx] = true
				out = append(out, idx)
			}
		}
	}
	sort.Ints(out)
	return out
}

// partitionGhosts computes the ghost/user partition for every node from
// the placement alone — the deterministic rule both Init and external
// harnesses (via GhostRanks) must agree on.
func partitionGhosts(place *cluster.Placement, numGhosts int) (partition, error) {
	m := place.Machine()
	nodes := place.NodesUsed()
	n := place.N()
	pt := partition{
		ghostsByNode: make([][]int, nodes),
		usersByNode:  make([][]int, nodes),
		// Capacities are upper bounds: the per-node lists below are
		// windows into the flat ones, so those must never move.
		ghosts:   make([]int, 0, nodes*numGhosts),
		users:    make([]int, 0, n),
		localIdx: make([]int, n),
		bound:    make([]int, n),
	}
	// Ranks are placed in blocks, so walking the nodes in order visits the
	// world ranks in order and the flat lists come out ascending.
	var ghostIdx []int
	lastPPN := -1
	for node := 0; node < nodes; node++ {
		ranks := place.NodeRanks(node)
		if len(ranks) != lastPPN {
			lastPPN = len(ranks)
			ghostIdx = ghostLocalIndices(lastPPN, m.NUMAPerNode, m.CoresPerNUMA(), numGhosts)
		}
		g0, u0 := len(pt.ghosts), len(pt.users)
		next := 0 // ghostIdx is ascending
		for i, wr := range ranks {
			if next < len(ghostIdx) && ghostIdx[next] == i {
				next++
				pt.ghosts = append(pt.ghosts, wr)
				pt.localIdx[wr] = -1
				pt.bound[wr] = -1
			} else {
				pt.localIdx[wr] = len(pt.users) - u0
				pt.users = append(pt.users, wr)
			}
		}
		pt.ghostsByNode[node] = pt.ghosts[g0:len(pt.ghosts):len(pt.ghosts)]
		pt.usersByNode[node] = pt.users[u0:len(pt.users):len(pt.users)]
		if len(pt.usersByNode[node]) == 0 && len(ranks) > 0 {
			return partition{}, fmt.Errorf("casper: node %d has no user processes", node)
		}
		if nu := len(pt.usersByNode[node]); nu > pt.maxUsers {
			pt.maxUsers = nu
		}
	}
	for node, us := range pt.usersByNode {
		for _, u := range us {
			pt.bound[u] = bindGhost(place, pt.ghostsByNode[node], u, pt.localIdx[u])
		}
	}
	return pt, nil
}

// bindGhost returns the statically bound ghost (world rank) of a user
// process under rank binding: prefer ghosts in the user's NUMA domain,
// balance within the preferred set by local index (topology-aware
// binding, Section II-A).
func bindGhost(place *cluster.Placement, ghosts []int, user, localIdx int) int {
	same := 0
	for _, g := range ghosts {
		if place.SameNUMA(g, user) {
			same++
		}
	}
	if same == 0 {
		return ghosts[localIdx%len(ghosts)]
	}
	pick := localIdx % same
	for _, g := range ghosts {
		if place.SameNUMA(g, user) {
			if pick == 0 {
				return g
			}
			pick--
		}
	}
	panic("unreachable")
}

// GhostRanks returns, per node, the world ranks Init will carve out as
// ghost processes for the given machine and placement — the same rule
// buildDeployment applies. Harnesses use it to aim fault plans (crash or
// stall a specific ghost) without reimplementing the carving.
func GhostRanks(m cluster.Machine, n, ppn, numGhosts int) ([][]int, error) {
	place, err := cluster.NewPlacement(m, n, ppn)
	if err != nil {
		return nil, err
	}
	if numGhosts >= ppn {
		return nil, fmt.Errorf("casper: %d ghosts per node leaves no user processes (ppn %d)",
			numGhosts, ppn)
	}
	pt, err := partitionGhosts(place, numGhosts)
	if err != nil {
		return nil, err
	}
	return pt.ghostsByNode, nil
}

// buildDeployment attaches this rank to the world's shared deployment,
// computing the ghost/user partition if it is the first rank to ask.
func buildDeployment(r *mpi.Rank, cfg Config) (*deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	place := r.World().Placement()
	if cfg.NumGhosts >= place.PPN() {
		return nil, fmt.Errorf("casper: %d ghosts per node leaves no user processes (ppn %d)",
			cfg.NumGhosts, place.PPN())
	}
	v := r.World().SharedState("casper.deployment", func() interface{} {
		pt, err := partitionGhosts(place, cfg.NumGhosts)
		if err != nil {
			return err
		}
		return &deployShared{
			numGhosts: cfg.NumGhosts,
			partition: pt,
			byComm:    map[winID]*winMeta{},
			byKey:     map[string][]*winMeta{},
		}
	})
	sh, ok := v.(*deployShared)
	if !ok {
		return nil, v.(error)
	}
	if sh.numGhosts != cfg.NumGhosts {
		return nil, fmt.Errorf("casper: rank %d deploys %d ghosts per node, the world %d",
			r.Rank(), cfg.NumGhosts, sh.numGhosts)
	}
	return &deployment{
		cfg:          cfg,
		place:        place,
		world:        r.CommWorld(),
		isGhost:      sh.localIdx[r.Rank()] < 0,
		deployShared: sh,
	}, nil
}

// Init deploys Casper on this rank. On user processes it returns a
// *Process (which implements mpi.Env) and isGhost=false. On ghost
// processes it runs the ghost service loop — the process stays parked
// inside MPI servicing redirected RMA until a user calls Finalize — and
// then returns (nil, true).
func Init(r *mpi.Rank, cfg Config) (*Process, bool) {
	d, err := buildDeployment(r, cfg)
	if err != nil {
		panic(err)
	}
	world := d.world
	node := d.place.Node(r.Rank())
	// Node communicator (users + ghosts of the node), ordered by world
	// rank: offsets within the shared segment follow this order.
	d.nodeComm = world.Split(node, r.Rank())
	// COMM_USER_WORLD: ghosts get no communicator.
	color := 0
	if d.isGhost {
		color = -1
	}
	d.userComm = world.Split(color, r.Rank())

	// Every command is logged, so the sequencer role can migrate after a
	// crash in a fault world.
	d.journal = journalFor(r, d)

	if d.isGhost {
		ghostLoop(r, d)
		return nil, true
	}
	// User processes monitor ghost health so routing can fail over after
	// a detected ghost crash. No-op unless a fault plan is installed.
	r.World().TrackHealth(d.ghosts)
	if appCrashesPlanned(r) {
		// Recoverable app crashes must be confirmed by the detector
		// before the recovery pipeline can start, so the user ranks are
		// monitored too.
		r.World().TrackHealth(d.users)
	}
	return &Process{r: r, d: d}, false
}

// ghostLoop is the ghost process service loop (Section II-A): wait for
// commands inside MPI_RECV so the MPI runtime can progress any RMA
// operations targeting this ghost, join window-creation collectives on
// command, exit on shutdown. Every received command message is a
// doorbell that executes exactly one journal entry; the acting sequencer
// first orders the entry and forwards its bytes to every other ghost, so
// all ghosts execute commands in one global order even when disjoint
// user groups create windows concurrently. A cmdSucceed doorbell hands
// the sequencer role over (see journal.go).
func ghostLoop(r *mpi.Rank, d *deployment) {
	// Windows this ghost participates in, keyed by their creation
	// command payload and indexed by per-key creation order — the same
	// (key, index) the user side derives, so windows may be freed in
	// any order.
	wins := map[string][]*ghostWinSet{}
	j := d.journal
	defer func() { j.exited[r.Rank()] = true }()
	for {
		data, st := d.world.Recv(mpi.AnySource, tagGhostCmd)
		if len(data) == 0 {
			panic("casper: empty ghost command")
		}
		if data[0] == cmdSucceed {
			if j.takeover(r, d, wins) {
				return
			}
			continue
		}
		if j.seqRank == r.Rank() {
			if e := j.popPending(st.Source); e != nil {
				j.order(e)
				for _, gs := range d.ghostsByNode {
					for _, g := range gs {
						if g != r.Rank() {
							d.world.Send(g, tagGhostCmd, e.data)
						}
					}
				}
			}
		}
		if e := j.take(r.Rank()); e != nil {
			if handleGhostCmd(r, d, wins, e.data) {
				return
			}
		}
	}
}

// handleGhostCmd executes one ghost command; reports whether the
// service loop should exit (shutdown).
func handleGhostCmd(r *mpi.Rank, d *deployment, wins map[string][]*ghostWinSet, data []byte) bool {
	switch data[0] {
	case cmdShutdown:
		return true
	case cmdWinCreate:
		// The command names the window's record: its payload is the
		// creation key, and this is the ghost's len(wins[key])-th
		// creation under that key.
		key := string(data[1:])
		set := ghostJoinWindow(r, d, d.ghostWindow(key, len(wins[key])))
		wins[key] = append(wins[key], &set)
	case cmdWinFree:
		key, idx, err := parseFreeCmd(data[1:])
		if err != nil {
			panic(err)
		}
		sets := wins[key]
		if idx >= len(sets) || sets[idx] == nil {
			panic(fmt.Sprintf("casper: free of unknown window instance %d", idx))
		}
		set := sets[idx]
		sets[idx] = nil
		set.free()
	default:
		panic(fmt.Sprintf("casper: unknown ghost command %d", data[0]))
	}
	return false
}

// ghostWinSet holds the ghost's handles of one Casper window's internal
// windows, for the free protocol.
type ghostWinSet struct {
	shared   *mpi.Win
	lockWins []*mpi.Win
	active   *mpi.Win
}

// free releases the internal windows in the same order the user side
// does in casperWin.Free.
func (s ghostWinSet) free() {
	for _, w := range s.lockWins {
		w.Free()
	}
	if s.active != nil {
		s.active.Free()
	}
	s.shared.Free()
}

// encodeWinCmd builds the window-creation command: the epochs_used hint
// and the window's user world ranks (the window may live on any subset
// of COMM_USER_WORLD). Ghosts do not parse it — its payload is the key
// under which they find the window's record — but its length is what
// the command costs on the wire.
func encodeWinCmd(epochs epochSet, users []int) []byte {
	e := epochs.String()
	b := make([]byte, 0, 2+len(e)+4*len(users))
	b = append(b, cmdWinCreate)
	b = append(b, e...)
	b = append(b, 0)
	for i, u := range users {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	return b
}

// encodeFreeCmd/parseFreeCmd address a window by its creation key and
// per-key creation index.
func encodeFreeCmd(key string, idx int) []byte {
	return []byte(fmt.Sprintf("%c%d\x1f%s", cmdWinFree, idx, key))
}

func parseFreeCmd(payload []byte) (string, int, error) {
	parts := strings.SplitN(string(payload), "\x1f", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("casper: malformed free command")
	}
	idx, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, fmt.Errorf("casper: bad free index %q", parts[0])
	}
	return parts[1], idx, nil
}

// winMeta is the immutable record of one Casper window (Section III-A),
// built once and shared by the handles of every user and ghost that
// joins it. The topology half is filled when the first member asks for
// the record, because the creation collectives need it; the routing
// layout needs the exchanged sizes and is filled by whichever member
// leaves the size allgather first (see layoutFor in window.go). What an
// origin mutates while routing lives in its own casperWin, never here.
type winMeta struct {
	epochs epochSet
	users  []int  // window user world ranks, in user-comm rank order
	cmd    []byte // creation command sent to the ghosts
	key    string // cmd's payload; keys the ghost-side tables and the free protocol
	idx    int    // creation index among the windows sharing key (windows may free in any order)

	usersByNode [][]int // node -> window user world ranks, ascending
	maxUsers    int     // max window users on any node
	nodeRanks   [][]int // node -> members of the node's shared window: its window users plus its ghosts, ascending
	internal    []int   // members of the internal overlapping windows: every window user plus every ghost, ascending
	internalIdx []int   // world rank -> rank in the internal communicator; -1 for non-members
	nLock       int     // number of per-user-process overlapping windows

	layout []tinfo // per user comm rank; built by the first member through layoutFor
}

// userWindow returns the record of the nth Casper window on comm,
// building its topology if the caller is the first member to arrive.
func (d *deployment) userWindow(comm *mpi.Comm, nth int, epochs epochSet) *winMeta {
	id := winID{comm.ID(), nth}
	m := d.byComm[id]
	if m == nil {
		m = d.newWinMeta(comm.Group(), epochs)
		m.idx = len(d.byKey[m.key])
		d.byKey[m.key] = append(d.byKey[m.key], m)
		d.byComm[id] = m
	}
	if m.epochs != epochs {
		panic(fmt.Sprintf("casper: %s hint %q differs from %q given by another rank of the window",
			InfoEpochsUsed, epochs, m.epochs))
	}
	return m
}

// ghostWindow returns the record a creation command addresses. The
// commanding user obtained it before sending, so it always exists.
func (d *deployment) ghostWindow(key string, idx int) *winMeta {
	if ms := d.byKey[key]; idx < len(ms) {
		return ms[idx]
	}
	panic(fmt.Sprintf("casper: creation command for unknown window instance %d", idx))
}

// newWinMeta computes a window's topology: which of its users live on
// which node, and the member lists of the communicators its internal
// windows are built on.
func (d *deployment) newWinMeta(users []int, epochs epochSet) *winMeta {
	m := &winMeta{epochs: epochs, users: users, cmd: encodeWinCmd(epochs, users)}
	m.key = string(m.cmd[1:])

	nodes := d.place.NodesUsed()
	sorted := users
	if !sort.IntsAreSorted(sorted) { // e.g. a Split with descending keys
		sorted = append([]int(nil), users...)
		sort.Ints(sorted)
	}
	// Block placement: ascending world ranks are grouped by node.
	m.usersByNode = make([][]int, nodes)
	for lo := 0; lo < len(sorted); {
		node := d.place.Node(sorted[lo])
		hi := lo + 1
		for hi < len(sorted) && d.place.Node(sorted[hi]) == node {
			hi++
		}
		m.usersByNode[node] = sorted[lo:hi:hi]
		if hi-lo > m.maxUsers {
			m.maxUsers = hi - lo
		}
		lo = hi
	}
	// Both member lists are merges of ascending lists; node by node they
	// are one and the same merge.
	m.nodeRanks = make([][]int, nodes)
	m.internal = make([]int, 0, len(users)+len(d.ghosts))
	m.internalIdx = make([]int, d.place.N())
	for i := range m.internalIdx {
		m.internalIdx[i] = -1
	}
	for node := 0; node < nodes; node++ {
		lo := len(m.internal)
		us, gs := m.usersByNode[node], d.ghostsByNode[node]
		for len(us) > 0 || len(gs) > 0 {
			var wr int
			if len(gs) == 0 || (len(us) > 0 && us[0] < gs[0]) {
				wr, us = us[0], us[1:]
			} else {
				wr, gs = gs[0], gs[1:]
			}
			m.internalIdx[wr] = len(m.internal)
			m.internal = append(m.internal, wr)
		}
		m.nodeRanks[node] = m.internal[lo:len(m.internal):len(m.internal)]
	}
	m.nLock = d.lockWindowCount(epochs, m.maxUsers)
	return m
}

// ghostJoinWindow mirrors, on the ghost side, the collective window
// construction the user processes perform in Process.WinAllocate. The
// two sides must stay in lockstep.
func ghostJoinWindow(r *mpi.Rank, d *deployment, m *winMeta) ghostWinSet {
	node := d.place.Node(r.Rank())
	var set ghostWinSet
	// 1. Node shared window; ghosts contribute zero bytes but gain
	// load/store access to the whole node segment (Fig. 2).
	nodeComm := r.CommFromGroup(m.nodeRanks[node])
	shared, _ := r.WinAllocateShared(nodeComm, 0)
	set.shared = shared
	root := shared.Region().Root()
	// 2. Internal overlapping windows over users + all ghosts: the
	// ghost exposes the entire node segment in each.
	internal := r.CommFromGroup(m.internal)
	for i := 0; i < m.nLock; i++ {
		set.lockWins = append(set.lockWins, r.WinCreate(internal, root))
	}
	if m.epochs.needActive() {
		set.active = r.WinCreate(internal, root)
	}
	// 3. The user-visible window is over the users' communicator only;
	// ghosts do not participate.
	return set
}

// lockWindowCount returns how many per-user-process overlapping windows
// are created (Section III-A): one per window user process on the
// fullest node when lock epochs are declared, one when the unsafe
// shared-lock-window mode is forced, zero otherwise.
func (d *deployment) lockWindowCount(epochs epochSet, maxUsers int) int {
	if !epochs.lock {
		return 0
	}
	if d.cfg.UnsafeSharedLockWindow {
		return 1
	}
	return maxUsers
}

// userLocalIndex returns the position of worldRank among the user
// processes of its node (the i in "the ith user process", III-A).
func (d *deployment) userLocalIndex(worldRank int) int {
	if i := d.localIdx[worldRank]; i >= 0 {
		return i
	}
	panic(fmt.Sprintf("casper: world rank %d is not a user process", worldRank))
}

// boundGhost returns the statically bound ghost (world rank) of a user
// process under rank binding.
func (d *deployment) boundGhost(worldRank int) int { return d.bound[worldRank] }

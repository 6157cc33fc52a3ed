package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The reference builder: Section III-A's window construction the way a
// distributed program performs it, every rank recomputing the whole
// window's metadata from the placement, its own communicator handles and
// the sizes it gathered. The shared record (deployShared, winMeta) must
// agree with it field by field on every rank.

type refPartition struct {
	ghostsByNode, usersByNode [][]int
	maxUsers                  int
}

func refPartitionGhosts(place *cluster.Placement, numGhosts int) refPartition {
	m := place.Machine()
	var pt refPartition
	for node := 0; node < place.NodesUsed(); node++ {
		ranks := place.NodeRanks(node)
		isG := map[int]bool{}
		for _, i := range ghostLocalIndices(len(ranks), m.NUMAPerNode, m.CoresPerNUMA(), numGhosts) {
			isG[i] = true
		}
		var gs, us []int
		for i, wr := range ranks {
			if isG[i] {
				gs = append(gs, wr)
			} else {
				us = append(us, wr)
			}
		}
		pt.ghostsByNode = append(pt.ghostsByNode, gs)
		pt.usersByNode = append(pt.usersByNode, us)
		if len(us) > pt.maxUsers {
			pt.maxUsers = len(us)
		}
	}
	return pt
}

func (pt refPartition) userLocalIndex(place *cluster.Placement, worldRank int) int {
	for i, u := range pt.usersByNode[place.Node(worldRank)] {
		if u == worldRank {
			return i
		}
	}
	return -1
}

func (pt refPartition) boundGhost(place *cluster.Placement, worldRank int) int {
	ghosts := pt.ghostsByNode[place.Node(worldRank)]
	var sameNUMA []int
	for _, g := range ghosts {
		if place.SameNUMA(g, worldRank) {
			sameNUMA = append(sameNUMA, g)
		}
	}
	pool := ghosts
	if len(sameNUMA) > 0 {
		pool = sameNUMA
	}
	return pool[pt.userLocalIndex(place, worldRank)%len(pool)]
}

// refWindow is one rank's own computation of a window's record.
type refWindow struct {
	cmd         []byte
	usersByNode map[int][]int
	maxUsers    int
	nodeRanks   []int // of the caller's node
	internal    []int
	nLock       int
	layout      []tinfo
}

func refBuildWindow(cw *casperWin, pt refPartition, sizes []int) refWindow {
	d := cw.p.d
	place := d.place
	users := cw.comm.Group()
	var ref refWindow

	var b strings.Builder
	b.WriteByte(cmdWinCreate)
	b.WriteString(cw.epochs.String())
	b.WriteByte(0)
	for i, u := range users {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", u)
	}
	ref.cmd = []byte(b.String())

	ref.usersByNode = map[int][]int{}
	for _, u := range users {
		ref.usersByNode[place.Node(u)] = append(ref.usersByNode[place.Node(u)], u)
	}
	for _, us := range ref.usersByNode {
		sort.Ints(us)
		if len(us) > ref.maxUsers {
			ref.maxUsers = len(us)
		}
	}
	var allGhosts []int
	for _, gs := range pt.ghostsByNode {
		allGhosts = append(allGhosts, gs...)
	}
	sort.Ints(allGhosts)
	myNode := place.Node(cw.p.r.Rank())
	ref.nodeRanks = append(append([]int(nil), ref.usersByNode[myNode]...), pt.ghostsByNode[myNode]...)
	sort.Ints(ref.nodeRanks)
	ref.internal = append(append([]int(nil), users...), allGhosts...)
	sort.Ints(ref.internal)
	ref.nLock = d.lockWindowCount(cw.epochs, ref.maxUsers)

	// The layout, as every rank used to build it for itself.
	align := func(x int) int { return (x + mpi.MaxBasicSize - 1) / mpi.MaxBasicSize * mpi.MaxBasicSize }
	toInternal := func(worldRank int) int {
		cr, ok := cw.internal.CommRankOf(worldRank)
		if !ok {
			panic(fmt.Sprintf("rank %d missing from internal comm", worldRank))
		}
		return cr
	}
	n := cw.comm.Size()
	ref.layout = make([]tinfo, n)
	worldToUser := map[int]int{}
	for t := 0; t < n; t++ {
		worldToUser[cw.comm.WorldRank(t)] = t
	}
	totals := map[int]int{}
	for node, winUsers := range ref.usersByNode {
		off := 0
		for i, wr := range winUsers {
			ut := worldToUser[wr]
			ti := tinfo{rank: ut, world: wr, node: node, base: off, size: sizes[ut]}
			if ref.nLock > 0 {
				ti.lockWinIdx = i % ref.nLock
			}
			ref.layout[ut] = ti
			off += align(sizes[ut])
		}
		totals[node] = off
	}
	g := d.cfg.NumGhosts
	for t := range ref.layout {
		ti := &ref.layout[t]
		for _, gw := range pt.ghostsByNode[ti.node] {
			ti.ghosts = append(ti.ghosts, toInternal(gw))
		}
		ti.bound = toInternal(pt.boundGhost(place, ti.world))
		ti.selfInternal = toInternal(ti.world)
		ti.nodeTotal = totals[ti.node]
		ti.chunk = align((ti.nodeTotal + g - 1) / g)
		if ti.chunk == 0 {
			ti.chunk = mpi.MaxBasicSize
		}
	}
	return ref
}

// checkAgainstReference compares the shared record behind cw with the
// caller's own reference computation. wantIdx is the creation index the
// caller derives from its own per-key count.
func checkAgainstReference(t *testing.T, cw *casperWin, sizes []int, wantIdx int) {
	d := cw.p.d
	me := cw.p.r.Rank()
	pt := refPartitionGhosts(d.place, d.cfg.NumGhosts)
	if !reflect.DeepEqual(d.ghostsByNode, pt.ghostsByNode) || !reflect.DeepEqual(d.usersByNode, pt.usersByNode) ||
		d.maxUsers != pt.maxUsers {
		t.Errorf("rank %d: partition ghosts %v users %v max %d, reference %v %v %d", me,
			d.ghostsByNode, d.usersByNode, d.maxUsers, pt.ghostsByNode, pt.usersByNode, pt.maxUsers)
		return
	}
	for wr := 0; wr < d.place.N(); wr++ {
		li := pt.userLocalIndex(d.place, wr)
		if d.localIdx[wr] != li {
			t.Errorf("rank %d: localIdx[%d] = %d, reference %d", me, wr, d.localIdx[wr], li)
		}
		if li >= 0 && d.boundGhost(wr) != pt.boundGhost(d.place, wr) {
			t.Errorf("rank %d: boundGhost(%d) = %d, reference %d", me, wr, d.boundGhost(wr), pt.boundGhost(d.place, wr))
		}
	}

	m := cw.meta
	ref := refBuildWindow(cw, pt, sizes)
	if string(m.cmd) != string(ref.cmd) || m.key != string(ref.cmd[1:]) {
		t.Errorf("rank %d: creation command %q, reference %q", me, m.cmd, ref.cmd)
	}
	if m.idx != wantIdx {
		t.Errorf("rank %d: creation index %d, reference %d", me, m.idx, wantIdx)
	}
	if m.maxUsers != ref.maxUsers || m.nLock != ref.nLock || len(cw.lockWins) != ref.nLock {
		t.Errorf("rank %d: maxUsers %d nLock %d (%d lock windows), reference %d %d", me,
			m.maxUsers, m.nLock, len(cw.lockWins), ref.maxUsers, ref.nLock)
	}
	for node, us := range m.usersByNode {
		if len(us) == 0 && len(ref.usersByNode[node]) == 0 {
			continue
		}
		if !reflect.DeepEqual(us, ref.usersByNode[node]) {
			t.Errorf("rank %d: window users of node %d = %v, reference %v", me, node, us, ref.usersByNode[node])
		}
	}
	if myNode := d.place.Node(me); !reflect.DeepEqual(m.nodeRanks[myNode], ref.nodeRanks) {
		t.Errorf("rank %d: node window members %v, reference %v", me, m.nodeRanks[myNode], ref.nodeRanks)
	}
	if !reflect.DeepEqual(m.internal, ref.internal) || !reflect.DeepEqual(cw.internal.Group(), ref.internal) {
		t.Errorf("rank %d: internal members %v (comm %v), reference %v", me, m.internal, cw.internal.Group(), ref.internal)
	}
	if len(cw.layout) != len(ref.layout) {
		t.Errorf("rank %d: layout of %d targets, reference %d", me, len(cw.layout), len(ref.layout))
		return
	}
	for i := range ref.layout {
		if !reflect.DeepEqual(cw.layout[i], ref.layout[i]) {
			t.Errorf("rank %d: layout[%d] = %+v, reference %+v", me, i, cw.layout[i], ref.layout[i])
		}
	}
}

func TestSharedRecordMatchesPerRankReference(t *testing.T) {
	type tc struct {
		name    string
		n, ppn  int
		numa    int
		ghosts  int
		binding Binding
		shards  int
	}
	cases := []tc{
		// One ghost on a two-domain node: half the users have no
		// NUMA-local ghost; with 2 and 4 every user has one or two.
		{"rank/1ghost", 16, 8, 2, 1, BindRank, 0},
		{"rank/2ghosts", 48, 24, 2, 2, BindRank, 0},
		{"segment/2ghosts", 48, 24, 2, 2, BindSegment, 0},
		{"segment/4ghosts", 48, 24, 2, 4, BindSegment, 0},
		{"rank/4ghosts/1numa", 24, 12, 1, 4, BindRank, 0},
		// 8 + 8 + 4 ranks: the last node has fewer users (and, with the
		// ghosts taken from the back of the occupied cores, its own carving).
		{"rank/uneven", 20, 8, 2, 2, BindRank, 0},
		{"segment/uneven", 20, 8, 2, 1, BindSegment, 0},
		{"rank/2ghosts/shards2", 32, 8, 2, 2, BindRank, 2},
		{"segment/uneven/shards2", 20, 8, 2, 2, BindSegment, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mcfg := casperConfig(c.n, c.ppn)
			mcfg.Machine.NUMAPerNode = c.numa
			if c.shards > 0 {
				mcfg.Validate = false // the validator forces the serial engine
				mcfg.Shards = c.shards
			}
			w := casperRun(t, mcfg, Config{NumGhosts: c.ghosts, Binding: c.binding}, func(p *Process) {
				world := p.CommWorld()
				sizeOf := func(c *mpi.Comm) int { return 8 * (1 + (c.Rank()*7)%5) }
				counts := map[string]int{} // this rank's own per-key creation counts
				create := func(c *mpi.Comm, epochs string) (*casperWin, []int) {
					win, _ := p.WinAllocate(c, sizeOf(c), mpi.Info{InfoEpochsUsed: epochs})
					cw := win.(*casperWin)
					sizes := c.AllgatherInt(sizeOf(c))
					checkAgainstReference(t, cw, sizes, counts[cw.meta.key])
					counts[cw.meta.key]++
					return cw, sizes
				}
				// Two live windows on the same group: same creation key,
				// creation indices 0 and 1; a third with other epochs.
				w0, _ := create(world, EpochLock+","+EpochLockAll)
				w1, _ := create(world, EpochLock+","+EpochLockAll)
				w2, _ := create(world, EpochFence)
				if w0.meta == w1.meta || w0.meta.idx != 0 || w1.meta.idx != 1 {
					t.Errorf("rank %d: same-group windows share a record or an index (%d, %d)",
						p.Rank(), w0.meta.idx, w1.meta.idx)
				}
				// Sub-communicators: by parity in rank order, and in blocks
				// of three in reverse rank order (an unsorted user list).
				parity := world.Split(world.Rank()%2, world.Rank())
				w3, _ := create(parity, EpochLock)
				rev := world.Split(world.Rank()/3, -world.Rank())
				w4, _ := create(rev, DefaultEpochs)
				// Use the first pair, so a ghost that joined the wrong
				// instance would be found out, then free in reverse order.
				t0 := (world.Rank() + 1) % world.Size()
				for i, cw := range []*casperWin{w0, w1} {
					cw.Lock(t0, mpi.LockShared, mpi.AssertNone)
					cw.Accumulate(mpi.PutInt64(int64(i+1)), t0, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
					cw.Unlock(t0)
				}
				world.Barrier()
				for _, cw := range []*casperWin{w4, w3, w2, w1, w0} {
					cw.Free()
				}
				// The groups' next windows continue the per-key count.
				w5, _ := create(world, EpochLock+","+EpochLockAll)
				if w5.meta.idx != 2 {
					t.Errorf("rank %d: third same-key window has index %d", p.Rank(), w5.meta.idx)
				}
				w5.Free()
			})
			if c.shards > 0 && !w.Sharded() {
				t.Fatal("world fell back to the serial engine")
			}
		})
	}
}

// TestFailoverMarksOnlyTheOriginThatFailedOver: the layout is shared by
// every handle of a window, so what an origin learns while routing —
// that a target's bound ghost died and it re-bound — must stay in that
// origin's handle.
func TestFailoverMarksOnlyTheOriginThatFailedOver(t *testing.T) {
	// 2 nodes x (2 users + 2 ghosts): users 0,1,4,5; ghosts 2,3 and 6,7.
	// User 1 is bound to ghost 3; ghost 3 dies (ghost 2 stays sequencer).
	mcfg := casperConfig(recN, recPPN)
	mcfg.Fault = &fault.Plan{Seed: 5, Crashes: []fault.Crash{{Rank: 3, At: sim.Time(60 * sim.Microsecond)}}}
	handles := make([]*casperWin, recUsers)
	w, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		p, ghost := Init(r, Config{NumGhosts: recGhosts})
		if ghost {
			return
		}
		c := p.CommWorld()
		win, _ := p.WinAllocate(c, 8, mpi.Info{InfoEpochsUsed: EpochLockAll})
		cw := win.(*casperWin)
		handles[c.Rank()] = cw
		c.Barrier()
		p.Compute(400 * sim.Microsecond) // the detector confirms the death
		win.LockAll(mpi.AssertNone)
		if c.Rank() == 2 { // only this origin routes to the orphaned target
			win.Accumulate(mpi.PutInt64(7), 1, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
			win.Flush(1)
		}
		win.UnlockAll()
		c.Barrier()
		win.Free()
		p.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := handles[0].p.d.boundGhost(1); got != 3 {
		t.Fatalf("user 1 bound to ghost %d, the test assumes 3", got)
	}
	for i, cw := range handles {
		if &cw.layout[0] != &handles[0].layout[0] {
			t.Errorf("origin %d holds its own layout", i)
		}
		rebinds := w.RankByID(cw.p.r.Rank()).Stats().Rebinds
		if i == 2 {
			if cw.rebound == nil || !cw.rebound[1] || rebinds != 1 {
				t.Errorf("origin 2 did not record its failover (rebound %v, Rebinds %d)", cw.rebound, rebinds)
			}
			continue
		}
		if cw.rebound != nil || rebinds != 0 {
			t.Errorf("origin %d is marked by origin 2's failover (rebound %v, Rebinds %d)", i, cw.rebound, rebinds)
		}
	}
}

// TestWindowConstructionAllocatesPerRankNotPerWorld is the scaling
// guard: one Init plus one WinAllocate/Free may not allocate more
// objects per rank on a 16-node world than on a 4-node one. Metadata
// every rank rebuilds for itself grows this figure with the rank count.
func TestWindowConstructionAllocatesPerRankNotPerWorld(t *testing.T) {
	perRank := func(nodes int) float64 {
		const ppn = 18 // 16 users + 2 ghosts per node
		mcfg := mpi.Config{
			Machine: cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
			N:       nodes * ppn, PPN: ppn, Net: netmodel.CrayXC30(), Seed: 11,
		}
		var before, after runtime.MemStats
		main := func(r *mpi.Rank) {
			// One process at a time runs, so rank 0 reads the counter before
			// any rank's Init and after every rank's Free.
			r.CommWorld().Barrier()
			if r.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			r.CommWorld().Barrier()
			p, ghost := Init(r, Config{NumGhosts: 2})
			if !ghost {
				win, _ := p.WinAllocate(p.CommWorld(), 64, mpi.Info{InfoEpochsUsed: EpochLockAll})
				win.Free()
				p.Finalize()
			}
			r.CommWorld().Barrier()
			if r.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		}
		if _, err := mpi.Run(mcfg, main); err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs-before.Mallocs) / float64(nodes*ppn)
	}
	small, large := perRank(4), perRank(16)
	t.Logf("allocated objects per rank: %.0f on 4 nodes, %.0f on 16 nodes (%.2fx)", small, large, large/small)
	if large > 1.25*small {
		t.Errorf("objects per rank grew %.2fx from 4 to 16 nodes (%.0f -> %.0f); want at most 1.25x",
			large/small, small, large)
	}
}

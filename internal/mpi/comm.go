package mpi

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// commGlobal is the shared state of one communicator: the rank list and
// the rendezvous state for collectives.
type commGlobal struct {
	id    int
	w     *World
	ranks []int       // comm rank -> world rank
	index map[int]int // world rank -> comm rank
	gen   []int       // per comm-rank collective sequence number
	colls map[int]*collOp
}

func (w *World) newCommGlobal(worldRanks []int) *commGlobal {
	w.commSeq++
	g := &commGlobal{
		id:    w.commSeq,
		w:     w,
		ranks: append([]int(nil), worldRanks...),
		index: make(map[int]int, len(worldRanks)),
		gen:   make([]int, len(worldRanks)),
		colls: make(map[int]*collOp),
	}
	for i, r := range g.ranks {
		g.index[r] = i
	}
	w.comms = append(w.comms, g)
	return g
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	g  *commGlobal
	me int // comm rank
	r  *Rank
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.g.ranks) }

// WorldRank translates a comm rank to a world (MPI_COMM_WORLD) rank.
func (c *Comm) WorldRank(commRank int) int { return c.g.ranks[commRank] }

// Group returns the communicator's members as world ranks.
func (c *Comm) Group() []int { return append([]int(nil), c.g.ranks...) }

// ID returns a process-global identifier for the communicator (used in
// message matching).
func (c *Comm) ID() int { return c.g.id }

// String implements fmt.Stringer.
func (c *Comm) String() string {
	return fmt.Sprintf("comm%d(rank %d/%d)", c.g.id, c.me, len(c.g.ranks))
}

// --- Point-to-point -------------------------------------------------

// Status describes a received message.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
}

type inMsg struct {
	commID int
	src    int // comm rank
	tag    int
	data   []byte
}

// DeliverLocal delivers a message straight into dest's mailbox at the
// current instant, from engine context: no wire time, no transport, no
// MPI call overhead. It is the recovery side channel for layered
// runtimes — e.g. handing the sequencer role to a successor ghost when
// the normal path's owner just died. src and dest are comm ranks; the
// message is silently dropped at a crashed destination.
func (c *Comm) DeliverLocal(src, dest, tag int, data []byte) {
	dr := c.g.w.ranks[c.g.ranks[dest]]
	if dr.failed {
		return
	}
	dr.mailbox.arrive(&inMsg{commID: c.g.id, src: src, tag: tag, data: append([]byte(nil), data...)})
}

type postedRecv struct {
	commID int
	src    int
	tag    int
	done   sim.Completion
	msg    *inMsg
}

// mailbox holds a rank's unexpected-message and posted-receive queues.
type mailbox struct {
	msgs  []*inMsg
	recvs []*postedRecv
}

func match(commID, src, tag int, m *inMsg) bool {
	return m.commID == commID &&
		(src == AnySource || m.src == src) &&
		(tag == AnyTag || m.tag == tag)
}

// arrive runs in engine context when a message reaches its destination.
func (mb *mailbox) arrive(m *inMsg) {
	for i, pr := range mb.recvs {
		if match(pr.commID, pr.src, pr.tag, m) {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			pr.msg = m
			pr.done.Complete()
			return
		}
	}
	mb.msgs = append(mb.msgs, m)
}

// Send sends data to comm rank dest with the given tag. The model is an
// eager/buffered send: it completes locally once issued; the message
// arrives after the wire time. Delivery is FIFO per (sender, receiver)
// pair, as on a connection-oriented transport — a later small message
// never overtakes an earlier large one.
func (c *Comm) Send(dest, tag int, data []byte) {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	destWorld := c.g.ranks[dest]
	msg := &inMsg{commID: c.g.id, src: c.me, tag: tag, data: append([]byte(nil), data...)}
	dr := c.g.w.ranks[destWorld]
	eng := r.eng
	arrival := eng.Now().Add(r.transferTo(destWorld, len(data)))
	if r.p2pLast == nil {
		r.p2pLast = map[int]sim.Time{}
	}
	if arrival <= r.p2pLast[destWorld] {
		arrival = r.p2pLast[destWorld] + 1
	}
	r.p2pLast[destWorld] = arrival
	if rel := r.w.rel; rel != nil {
		rel.sendMsg(r, destWorld, msg, arrival)
	} else {
		eng.At(arrival, func() { dr.mailbox.arrive(msg) })
	}
	r.stats[MessagesSent]++
}

// Recv blocks until a message matching (src, tag) arrives; src may be
// AnySource and tag AnyTag. While blocked the rank is inside MPI, so
// software RMA targeted at it makes progress — this is why a Casper
// ghost parked in a Recv loop provides asynchronous progress.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	mb := &r.mailbox
	for i, m := range mb.msgs {
		if match(c.g.id, src, tag, m) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			return m.data, Status{Source: m.src, Tag: m.tag}
		}
	}
	pr := &postedRecv{commID: c.g.id, src: src, tag: tag}
	mb.recvs = append(mb.recvs, pr)
	pr.done.Await(r.proc, "MPI_Recv")
	return pr.msg.data, Status{Source: pr.msg.src, Tag: pr.msg.tag}
}

// --- Collectives ----------------------------------------------------

type collOp struct {
	name      string // collective type, to diagnose mismatched calls
	arrived   int
	left      int
	seen      []bool // per comm rank: has it arrived?
	vals      []interface{}
	result    interface{}
	reduce    func(vals []interface{}) interface{} // last arriver's reduce
	cost      sim.Duration                         // last arriver's cost
	completed bool
	done      sim.Completion
}

// rounds returns ceil(log2(n)), the depth of a dissemination/tree
// collective.
func rounds(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// collective runs a generic rendezvous: every comm rank contributes val;
// when the last arrives, reduce computes the shared result and all ranks
// resume after cost. reduce may be nil.
func (c *Comm) collective(name string, val interface{},
	cost sim.Duration, reduce func(vals []interface{}) interface{}) interface{} {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	g := c.g
	gen := g.gen[c.me]
	g.gen[c.me]++
	coll, ok := g.colls[gen]
	if !ok {
		coll = &collOp{name: name,
			seen: make([]bool, len(g.ranks)),
			vals: make([]interface{}, len(g.ranks))}
		g.colls[gen] = coll
	}
	if coll.name != name {
		panic(fmt.Sprintf("mpi: collective mismatch on comm%d: rank %d called %s while others called %s",
			g.id, c.me, name, coll.name))
	}
	coll.vals[c.me] = val
	coll.seen[c.me] = true
	coll.arrived++
	// Record the reduce and cost on every arrival so that, alive or
	// dead, the collective always completes with the *last arriver's*
	// view — exactly the fault-free semantics when nobody dies.
	coll.reduce = reduce
	coll.cost = cost
	g.maybeComplete(coll)
	coll.done.Await(r.proc, name)
	res := coll.result
	coll.left++
	if coll.left >= g.aliveN() {
		delete(g.colls, gen)
	}
	return res
}

// aliveN returns the number of comm members that have not crashed. The
// fast path keeps fault-free worlds on the seed code path.
func (g *commGlobal) aliveN() int {
	if g.w.failedCount == 0 {
		return len(g.ranks)
	}
	n := 0
	for _, wr := range g.ranks {
		if !g.w.ranks[wr].failed {
			n++
		}
	}
	return n
}

// maybeComplete fires the collective once every surviving member has
// arrived. Called on each arrival and again from reapFailed when a
// member crashes, so survivors are never held hostage by a corpse.
func (g *commGlobal) maybeComplete(coll *collOp) {
	if coll.completed || coll.arrived == 0 {
		return
	}
	if g.w.failedCount == 0 {
		if coll.arrived < len(g.ranks) {
			return
		}
	} else {
		for i, wr := range g.ranks {
			if !coll.seen[i] && !g.w.ranks[wr].failed {
				return
			}
		}
	}
	coll.completed = true
	if coll.reduce != nil {
		coll.result = coll.reduce(coll.vals)
	}
	done := coll.done.Complete
	g.w.eng.After(coll.cost, done)
}

// reapFailed re-examines this comm's open collectives after a crash
// (gen order, for determinism).
func (g *commGlobal) reapFailed() {
	if len(g.colls) == 0 {
		return
	}
	gens := make([]int, 0, len(g.colls))
	for gen := range g.colls {
		gens = append(gens, gen)
	}
	sort.Ints(gens)
	for _, gen := range gens {
		g.maybeComplete(g.colls[gen])
	}
}

// barrierCost models a dissemination barrier.
func (c *Comm) barrierCost() sim.Duration {
	n := len(c.g.ranks)
	per := c.g.w.net.InterLatency + c.g.w.net.CallOverhead
	return sim.Duration(rounds(n)) * per
}

// Barrier blocks until all comm members arrive (MPI_BARRIER).
func (c *Comm) Barrier() {
	c.collective("MPI_Barrier", nil, c.barrierCost(), nil)
}

// AllreduceFloat64 element-wise reduces each rank's vector with op and
// returns the result on every rank (MPI_ALLREDUCE).
func (c *Comm) AllreduceFloat64(vals []float64, op Op) []float64 {
	n := len(c.g.ranks)
	cost := sim.Duration(rounds(n)) * (c.g.w.net.InterLatency +
		sim.Duration(float64(8*len(vals))*c.g.w.net.InterPerByte))
	res := c.collective("MPI_Allreduce", vals, cost, func(all []interface{}) interface{} {
		var out []float64
		buf := make([]byte, 8)
		acc := make([]byte, 8)
		for _, v := range all {
			vv, ok := v.([]float64)
			if !ok {
				continue // crashed member: no contribution
			}
			if out == nil {
				out = append([]float64(nil), vv...)
				continue
			}
			for i := range out {
				// Reuse the element combiner for exact MPI semantics.
				EncodeFloat64(acc, out[i])
				EncodeFloat64(buf, vv[i])
				applyElem(op, Float64, acc, buf)
				out[i] = DecodeFloat64(acc)
			}
		}
		return out
	})
	out, _ := res.([]float64)
	return append([]float64(nil), out...)
}

// AllgatherInt gathers one int from each rank, indexed by comm rank
// (MPI_ALLGATHER).
func (c *Comm) AllgatherInt(v int) []int {
	n := len(c.g.ranks)
	cost := sim.Duration(rounds(n)) * (c.g.w.net.InterLatency + c.g.w.net.CallOverhead)
	res := c.collective("MPI_Allgather", v, cost, func(all []interface{}) interface{} {
		out := make([]int, len(all))
		for i, x := range all {
			xv, _ := x.(int) // crashed member gathers zero
			out[i] = xv
		}
		return out
	})
	out, _ := res.([]int)
	return append([]int(nil), out...)
}

type splitKey struct {
	color, key int
}

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, old rank) (MPI_COMM_SPLIT). color < 0 acts
// as MPI_UNDEFINED: the rank gets no new communicator (nil).
func (c *Comm) Split(color, key int) *Comm {
	cost := c.barrierCost()
	res := c.collective("MPI_Comm_split", splitKey{color, key}, cost,
		func(all []interface{}) interface{} {
			byColor := map[int][]int{} // color -> comm ranks
			var colors []int
			for i, v := range all {
				sk, ok := v.(splitKey)
				if !ok || sk.color < 0 { // crashed member: MPI_UNDEFINED
					continue
				}
				if _, ok := byColor[sk.color]; !ok {
					colors = append(colors, sk.color)
				}
				byColor[sk.color] = append(byColor[sk.color], i)
			}
			sort.Ints(colors)
			out := map[int]*commGlobal{}
			for _, col := range colors {
				members := byColor[col]
				sort.SliceStable(members, func(a, b int) bool {
					ka := all[members[a]].(splitKey).key
					kb := all[members[b]].(splitKey).key
					if ka != kb {
						return ka < kb
					}
					return members[a] < members[b]
				})
				world := make([]int, len(members))
				for i, m := range members {
					world[i] = c.g.ranks[m]
				}
				out[col] = c.g.w.newCommGlobal(world)
			}
			return out
		})
	if color < 0 {
		return nil
	}
	groups := res.(map[int]*commGlobal)
	ng := groups[color]
	me, ok := ng.index[c.g.ranks[c.me]]
	if !ok {
		panic("mpi: split result missing caller")
	}
	return &Comm{g: ng, me: me, r: c.r}
}

// CommFromGroup builds a communicator containing exactly the given
// world ranks, collectively over those ranks only — MPI_COMM_CREATE_
// GROUP semantics. Every member must call it with the identical rank
// list; members' nth calls with the same list yield the same
// communicator. No other rank participates (unlike Split), which is
// what lets Casper assemble per-window communicators of window users
// plus ghost processes without involving bystanders.
func (r *Rank) CommFromGroup(worldRanks []int) *Comm {
	r.mpiEnter()
	defer r.mpiLeave()
	sorted := worldRanks
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), worldRanks...)
		sort.Ints(sorted)
	}
	w := r.w
	hash := groupHash
	if w.groupHashHook != nil {
		hash = w.groupHashHook
	}
	h := hash(sorted)
	var grp *groupComms
	for _, c := range w.groupComms[h] {
		if slices.Equal(c.insts[0].ranks, sorted) { // a hash hit is confirmed, never trusted
			grp = c
			break
		}
	}
	if grp == nil {
		if w.groupComms == nil {
			w.groupComms = map[uint64][]*groupComms{}
		}
		grp = &groupComms{insts: []*commGlobal{w.newCommGlobal(sorted)}}
		w.groupComms[h] = append(w.groupComms[h], grp)
	}
	if r.groupUses == nil {
		r.groupUses = map[*groupComms]int{}
	}
	idx := r.groupUses[grp]
	r.groupUses[grp]++
	if idx >= len(grp.insts) {
		grp.insts = append(grp.insts, w.newCommGlobal(sorted))
	}
	return grp.insts[idx].handleFor(r)
}

// groupComms is the CommFromGroup registry entry of one rank set: the
// communicators built over it so far, in creation order. insts[0].ranks
// is the set itself (ascending).
type groupComms struct {
	insts []*commGlobal
}

// groupHash is the CommFromGroup registry hash of an ascending rank
// list: FNV-1a over the length and the members, one word at a time — no
// per-call key to build or keep.
func groupHash(sorted []int) uint64 {
	const prime = 1099511628211
	h := (uint64(14695981039346656037) ^ uint64(len(sorted))) * prime
	for _, wr := range sorted {
		h = (h ^ uint64(wr)) * prime
	}
	return h
}

// handleFor returns a Comm handle on g for world rank owner.
func (g *commGlobal) handleFor(r *Rank) *Comm {
	me, ok := g.index[r.id]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d not in comm%d", r.id, g.id))
	}
	return &Comm{g: g, me: me, r: r}
}

package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// crossEvent is one cross-shard injection waiting in a mailbox: an
// event key reserved on the sending engine plus its payload. Mailboxes
// drain into the destination heap at window barriers, so the (at, seq)
// key — seq banded by sending shard — totally orders injections against
// each other and against the destination's own events, independent of
// worker count or wall-clock interleaving.
type crossEvent struct {
	at  Time
	seq uint64
	run Runner
}

// mailRing is a single-producer single-consumer mailbox for one
// (src, dst) shard pair. It alternates between two slabs keyed by
// window parity: during window W the producer (the worker running src)
// appends to slab[W&1] while the consumer (the worker running dst)
// drains slab[(W^1)&1], which was filled during W-1 — so the two sides
// never touch the same slab concurrently and the append hot path is a
// plain bounds-checked slice append: branch-predictable and, once the
// slab has grown to the workload's high-water mark, allocation-free.
// The barrier between windows publishes each slab to the other side.
//
// minAt/lastWin are producer-owned bookkeeping read by the coordinator
// between windows: the minimum event time appended during window
// lastWin. Together with the producer's dirty list they give the
// coordinator the pending-mail component of each shard's horizon
// without touching the slabs themselves.
type mailRing struct {
	slab    [2][]crossEvent
	minAt   Time
	lastWin uint64
}

// shardSlot is the coordinator→worker per-shard window assignment,
// padded to a cache line so workers scanning their shards never false-
// share with a neighbour being written for another worker.
type shardSlot struct {
	limit  Time  // exclusive upper bound of this shard's window
	winCap int64 // absolute executed-events cap (0 = none); budget backstop
	_      [48]byte
}

// workerSlot is one worker's release gate: a sense-reversing epoch the
// coordinator bumps to start a window, with bounded spin-then-park on
// the worker side. sleeping + the 1-slot channel implement the park:
// the worker announces it is about to sleep, re-checks the epoch (the
// store/load pair is the classic Dekker handshake — Go's sequentially
// consistent atomics guarantee coordinator and worker cannot both miss
// each other), then blocks; the coordinator wakes only workers that
// announced. Spurious wake tokens are harmless: the wait loop re-checks
// the epoch. Padded so two workers' epochs never share a cache line.
type workerSlot struct {
	epoch    atomic.Uint32
	sleeping atomic.Uint32
	ch       chan struct{}
	_        [40]byte
}

// post releases the worker into the next window. All per-window data
// (active list, shard slots) must be written before post: the epoch
// store / load pair is the happens-before edge the worker reads under.
func (s *workerSlot) post() {
	s.epoch.Add(1)
	if s.sleeping.Load() == 1 {
		select {
		case s.ch <- struct{}{}:
		default:
		}
	}
}

// await blocks until the epoch moves past last, spinning at most spin
// iterations before parking. Returns the new epoch.
func (s *workerSlot) await(last uint32, spin int) uint32 {
	for i := 0; i < spin; i++ {
		if e := s.epoch.Load(); e != last {
			return e
		}
	}
	for {
		if e := s.epoch.Load(); e != last {
			return e
		}
		s.sleeping.Store(1)
		if e := s.epoch.Load(); e != last {
			s.sleeping.Store(0)
			select { // drop a wake token sent for the epoch we just saw
			case <-s.ch:
			default:
			}
			return e
		}
		<-s.ch
		s.sleeping.Store(0)
	}
}

// ShardGroup executes a set of engines (shards) in parallel under
// conservative safe windows, bit-identical to serial execution for any
// worker count.
//
// Each round the coordinator computes every shard's horizon h_i (its
// earliest pending event, mailbox entries included) and gives shard i
// the per-shard window limit
//
//	L_i = lookahead + min over j≠i of h_j
//
// — the earliest instant any other shard could still affect it. This is
// the horizon-skipping improvement over a single global window
// [h, h+lookahead): a shard whose neighbours are quiescent runs
// arbitrarily far in one window (L_i = ∞ when no other shard has
// anything pending), so long idle stretches and serialized phases cost
// one barrier instead of thousands of lookahead-wide steps. Safety for
// the unbounded case comes from dynamic self-tightening: every
// cross-shard injection at time a lowers the sender's own limit to
// a+lookahead, because the earliest possible causal echo of that
// injection is one more lookahead away. (Proof sketch for the bounded
// case: mail sent by shard j during a window carries time ≥ now_j +
// lookahead ≥ h_j + lookahead ≥ L_i, so it is always delivered at or
// past the receiver's limit — never into its past.)
//
// Cross-shard scheduling goes through per-(src,dst) SPSC mailboxes
// (Inject/InjectRun) drained on the *destination* shard's worker at the
// start of its window, so both the append and the drain run outside the
// serial coordinator section. The barrier itself is a sense-reversing
// epoch per worker with bounded spin-then-park, and the coordinator
// doubles as worker 0: windows with a single active shard (or a single
// schedulable CPU) execute entirely inline with no atomics, channel
// operations, or goroutine switches.
type ShardGroup struct {
	engines []*Engine
	window  Duration
	nw      int // requested workers (clamped to shard count)
	maxPar  int // GOMAXPROCS at creation: workers beyond this only add handoffs
	spin    int // barrier spin iterations before parking

	rings [][]mailRing // [src][dst]
	dirty [][]int      // per src: dst shards appended to this window (producer-owned)

	budget  int64 // total executed events across shards; checked at barriers
	maxTime Time  // horizon bound; checked at barriers

	slots     []workerSlot // release gates for workers 1..spawned
	remaining atomic.Int32 // workers still running the current window
	coordWake atomic.Uint32
	coordCh   chan struct{}
	stop      atomic.Bool

	sh     []shardSlot // per-shard window assignment (padded)
	active []int       // this round's active shards, ascending
	used   int         // workers participating this round (coordinator included)
	widx   uint64      // window index: mailbox slab parity
	hs     []Time      // scratch: per-shard horizons
	pend   []Time      // scratch: per-shard min pending-mail time
	inbox  [][]int     // per dst: src shards with mail to drain this window

	rounds int64 // window barriers executed
	// fixedWin reverts to a single global window [h, h+lookahead) per
	// barrier — the fixed-step schedule the adaptive limits replaced. Set
	// only by tests, which assert that the output is the same either way
	// while measuring the difference in barrier count.
	fixedWin bool

	spawned int
	workers sync.WaitGroup // the spawned worker goroutines; shutdown waits on it
	panics  []interface{}
	horizon Time
}

// NewShardGroup wires engines into a group executed by up to workers
// goroutines (clamped to the shard count, and to GOMAXPROCS and the
// physical core count at creation; at least 1). The hardware clamp is
// deliberate: a conservative-window simulation gains nothing from
// time-sliced workers — every window still executes the same events,
// plus a park/wake round trip per worker per barrier — so on a machine
// without the cores the group runs its windows inline instead, which
// is always at least as fast and bit-identical. Each engine's sequence
// counter is rebased into its own 16-bit band so event keys stay
// unique across shards; engines must be freshly created and not yet
// run. The group is single-use: Run tears the workers down when it
// returns.
func NewShardGroup(engines []*Engine, window Duration, workers int) *ShardGroup {
	if len(engines) == 0 {
		panic("sim: NewShardGroup with no engines")
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: NewShardGroup window %v must be positive", window))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	maxPar := runtime.GOMAXPROCS(0)
	n := len(engines)
	g := &ShardGroup{
		engines: engines,
		window:  window,
		nw:      workers,
		maxPar:  maxPar,
		rings:   make([][]mailRing, n),
		dirty:   make([][]int, n),
		sh:      make([]shardSlot, n),
		hs:      make([]Time, n),
		pend:    make([]Time, n),
		inbox:   make([][]int, n),
		coordCh: make(chan struct{}, 1),
		panics:  make([]interface{}, n),
	}
	for i, e := range engines {
		if e.executed != 0 || e.seq != 0 {
			panic("sim: NewShardGroup engine already used")
		}
		e.shard = i
		e.seq = uint64(i) << 48
		g.rings[i] = make([]mailRing, n)
		g.pend[i] = timeMax
	}
	// Spin only when every participant can hold a CPU while it spins;
	// with a single schedulable CPU — whether GOMAXPROCS=1 or a
	// GOMAXPROCS raised past the physical core count — a spinning
	// waiter just steals timeslices from the worker it is waiting for,
	// so park immediately.
	if maxPar > 1 && runtime.NumCPU() > 1 {
		g.spin = 4096
	}
	nspawn := workers - 1
	if m := maxPar - 1; nspawn > m {
		nspawn = m
	}
	if m := runtime.NumCPU() - 1; nspawn > m {
		nspawn = m
	}
	if nspawn < 0 {
		nspawn = 0
	}
	// Slots are allocated for the un-clamped worker count so the test
	// hook below can add workers past the hardware clamp without
	// reallocating under a parked worker's feet.
	g.slots = make([]workerSlot, workers-1)
	for w := range g.slots {
		g.slots[w].ch = make(chan struct{}, 1)
	}
	g.spawnWorkers(nspawn)
	return g
}

// spawnWorkers raises the spawned-worker count to n (no-op when already
// there). Only called at construction and, from package tests, before
// the first Run — never on a running group.
func (g *ShardGroup) spawnWorkers(n int) {
	if n > len(g.slots) {
		n = len(g.slots)
	}
	for w := g.spawned + 1; w <= n; w++ {
		g.workers.Add(1)
		go g.workerLoop(w)
	}
	if n > g.spawned {
		g.spawned = n
	}
}

// Window returns the safe-window width (the lookahead bound).
func (g *ShardGroup) Window() Duration { return g.window }

// Engines returns the group's engines in shard order.
func (g *ShardGroup) Engines() []*Engine { return g.engines }

// Rounds returns how many window barriers Run has executed — the
// synchronization cost of the run. With horizon skipping this is a
// function of cross-shard interaction density, not of virtual time
// over lookahead.
func (g *ShardGroup) Rounds() int64 { return g.rounds }

// SetEventBudget arms a total-events watchdog checked at every window
// barrier (the sharded analogue of Engine.SetWatchdog's event limit).
// The remaining budget also caps each shard's per-window event count,
// so a runaway shard inside an unbounded horizon-skipping window still
// returns to the barrier to be diagnosed. Zero disables.
func (g *ShardGroup) SetEventBudget(n int64) { g.budget = n }

// SetMaxTime arms a virtual-time watchdog on the global horizon,
// checked at every window barrier; it also caps every per-shard window
// limit, so no shard can run unboundedly past it. Zero disables.
func (g *ShardGroup) SetMaxTime(t Time) { g.maxTime = t }

// EventsExecuted sums executed events across shards. Only meaningful
// from outside a window (between Run rounds or after Run returns).
func (g *ShardGroup) EventsExecuted() int64 {
	var n int64
	for _, e := range g.engines {
		n += e.executed
	}
	return n
}

// Horizon returns the global horizon of the most recent window.
func (g *ShardGroup) Horizon() Time { return g.horizon }

// Inject schedules fn at time at on dst from src's engine context. The
// event key is reserved on src, so injections from one shard arrive at
// dst in the order they were issued. at must lie at least one window
// into src's future — the conservative lookahead contract; violating it
// means the cost model produced a cross-shard interaction faster than
// netmodel's minimum latency, which is a bug worth dying loudly for.
func (g *ShardGroup) Inject(src, dst *Engine, at Time, fn func()) {
	g.InjectRun(src, dst, at, funcRunner(fn))
}

// InjectRun is Inject for closure-free Runner payloads.
func (g *ShardGroup) InjectRun(src, dst *Engine, at Time, r Runner) {
	if src == dst {
		src.AtRun(at, r)
		return
	}
	if min := src.now.Add(g.window); at < min {
		panic(fmt.Sprintf(
			"sim: cross-shard injection at %v from shard %d (now %v) violates lookahead %v (earliest legal %v)",
			at, src.shard, src.now, g.window, min))
	}
	// Self-tightening: the earliest causal echo of this injection is one
	// lookahead past it, so the sender must not outrun at+window inside
	// this window. This is what makes unbounded (L=∞) windows safe.
	if lim := at.Add(g.window); lim < src.limit {
		src.limit = lim
	}
	seq := src.ReserveSeq()
	ring := &g.rings[src.shard][dst.shard]
	// First append of this window registers the ring on the producer's
	// dirty list; the coordinator folds minAt into the destination's
	// horizon at the barrier. widx is strictly increasing, so lastWin
	// doubles as the once-per-window latch.
	w := g.widx
	if ring.lastWin != w {
		ring.lastWin = w
		ring.minAt = at
		g.dirty[src.shard] = append(g.dirty[src.shard], dst.shard)
	} else if at < ring.minAt {
		ring.minAt = at
	}
	ring.slab[w&1] = append(ring.slab[w&1], crossEvent{at: at, seq: seq, run: r})
}

// workerLoop is the body of workers 1..spawned: wait for release, run
// the strided share of this round's active shards, report done.
func (g *ShardGroup) workerLoop(w int) {
	defer g.workers.Done()
	slot := &g.slots[w-1]
	last := uint32(0)
	for {
		last = slot.await(last, g.spin)
		if g.stop.Load() {
			return
		}
		g.runShare(w)
		if g.remaining.Add(-1) == 0 && g.coordWake.Load() == 1 {
			select {
			case g.coordCh <- struct{}{}:
			default:
			}
		}
	}
}

// runShare executes the active shards assigned to worker w this round
// (strided by the number of participating workers, ascending).
func (g *ShardGroup) runShare(w int) {
	a := g.active
	for k := w; k < len(a); k += g.used {
		g.runShard(a[k])
	}
}

// runShard drains shard i's inbound mailboxes (the slabs filled during
// the previous window) into its heap, then executes its window. Process
// panics are captured per shard and re-raised by the coordinator,
// lowest shard first, so a multi-shard failure is reported
// deterministically.
func (g *ShardGroup) runShard(i int) {
	defer func() {
		if r := recover(); r != nil {
			g.panics[i] = r
		}
	}()
	e := g.engines[i]
	slab := int((g.widx ^ 1) & 1)
	for _, src := range g.inbox[i] {
		ring := &g.rings[src][i]
		box := ring.slab[slab]
		for k := range box {
			ev := &box[k]
			if ev.at < e.now {
				panic(fmt.Sprintf(
					"sim: cross-shard event at %v delivered into shard %d past (now %v)",
					ev.at, i, e.now))
			}
			e.injectEvent(ev.at, ev.seq, ev.run)
			box[k] = crossEvent{}
		}
		ring.slab[slab] = box[:0]
	}
	g.inbox[i] = g.inbox[i][:0]
	e.limit = g.sh[i].limit
	e.winCap = g.sh[i].winCap
	e.runWindow()
}

// waitWorkers blocks until every released worker has finished the
// window, spinning briefly before parking (the mirror image of
// workerSlot.await).
func (g *ShardGroup) waitWorkers() {
	for i := 0; i < g.spin; i++ {
		if g.remaining.Load() == 0 {
			return
		}
	}
	for {
		if g.remaining.Load() == 0 {
			return
		}
		g.coordWake.Store(1)
		if g.remaining.Load() == 0 {
			g.coordWake.Store(0)
			select {
			case <-g.coordCh:
			default:
			}
			return
		}
		<-g.coordCh
		g.coordWake.Store(0)
	}
}

// drainAll moves every pending mailbox entry (both slabs) into its
// destination heap so error reports see in-flight injections. Only
// called at barriers from error paths, when every worker is quiescent.
func (g *ShardGroup) drainAll() {
	for src := range g.rings {
		for dst := range g.rings[src] {
			ring := &g.rings[src][dst]
			e := g.engines[dst]
			for s := 0; s < 2; s++ {
				box := ring.slab[s]
				for k := range box {
					ev := &box[k]
					e.injectEvent(ev.at, ev.seq, ev.run)
					box[k] = crossEvent{}
				}
				ring.slab[s] = box[:0]
			}
		}
		g.dirty[src] = g.dirty[src][:0]
	}
}

func (g *ShardGroup) totalLive() int {
	n := 0
	for _, e := range g.engines {
		n += e.live
	}
	return n
}

// horizonDiagnostics reports each shard's clock and next pending event
// plus which shard is holding the global horizon back — the sharded
// extension of the frozen-clock report.
func (g *ShardGroup) horizonDiagnostics() []string {
	out := []string{"per-shard horizons:"}
	blocking, blockT := -1, timeMax
	for i, e := range g.engines {
		line := fmt.Sprintf("  shard %d: clock %v, %s", i, e.now, e.nextDesc())
		if t, ok := e.peekTime(); ok && t < blockT {
			blocking, blockT = i, t
		}
		out = append(out, line)
	}
	if blocking >= 0 {
		e := g.engines[blocking]
		out = append(out, fmt.Sprintf("blocking shard %d: %s", blocking, e.nextDesc()))
	}
	return out
}

// mergedStuck concatenates stuck-process reports across shards.
func (g *ShardGroup) mergedStuck() []string {
	var out []string
	for _, e := range g.engines {
		out = append(out, e.stuckProcs()...)
	}
	sort.Strings(out)
	return out
}

func (g *ShardGroup) mergedDiagnostics() []string {
	var out []string
	for i, e := range g.engines {
		out = append(out, fmt.Sprintf("shard %d %s", i, e.SchedulerState()))
		out = append(out, e.collectDiagnostics()...)
	}
	return out
}

// shutdown releases every worker with the stop flag set and waits for
// them to exit, so a finished Run leaves no goroutine behind.
func (g *ShardGroup) shutdown() {
	g.stop.Store(true)
	for w := range g.slots {
		g.slots[w].post()
	}
	g.workers.Wait()
}

// Run executes windows until every shard drains. It returns a
// *DeadlockError when processes remain parked with no pending events
// anywhere, and a *WatchdogError — always carrying the per-shard
// horizon report — when a budget, time, or per-engine stall limit
// trips.
func (g *ShardGroup) Run() error {
	defer g.shutdown()
	bgDiscarded := false
	for {
		// Fold the mail appended during the last window into per-shard
		// pending minima and inbound drain lists; shards with inbound
		// mail must run (at least to drain) next window, which keeps
		// every mailbox slab empty again by the time its producer's
		// parity comes back around. The inbox lists make the drain
		// O(mailboxes with mail) instead of O(shards) per active shard.
		for src := range g.dirty {
			for _, dst := range g.dirty[src] {
				ring := &g.rings[src][dst]
				if ring.minAt < g.pend[dst] {
					g.pend[dst] = ring.minAt
				}
				g.inbox[dst] = append(g.inbox[dst], src)
			}
			g.dirty[src] = g.dirty[src][:0]
		}

		// Per-shard horizons, global minimum and runner-up.
		h, h2, argmin := timeMax, timeMax, -1
		for i, e := range g.engines {
			ht := timeMax
			if t, ok := e.peekTime(); ok {
				ht = t
			}
			if p := g.pend[i]; p < ht {
				ht = p
			}
			g.hs[i] = ht
			if ht < h {
				h2, h, argmin = h, ht, i
			} else if ht < h2 {
				h2 = ht
			}
		}
		if h == timeMax {
			if g.totalLive() > 0 {
				return &DeadlockError{Time: g.horizon, Stuck: g.mergedStuck(),
					Diagnostics: g.mergedDiagnostics()}
			}
			return nil
		}
		g.horizon = h
		if g.maxTime > 0 && h > g.maxTime {
			return &WatchdogError{Time: h, Events: g.EventsExecuted(),
				Limit:       fmt.Sprintf("virtual-time limit %v", g.maxTime),
				Stuck:       g.mergedStuck(),
				Diagnostics: append(g.horizonDiagnostics(), g.mergedDiagnostics()...)}
		}

		// Per-shard limits and this round's active set. A shard is
		// active when it has work below its limit or mail to drain.
		var budgetLeft int64
		if g.budget > 0 {
			if budgetLeft = g.budget - g.EventsExecuted(); budgetLeft < 1 {
				budgetLeft = 1
			}
		}
		g.active = g.active[:0]
		for i := range g.engines {
			var lim Time
			switch {
			case g.fixedWin:
				lim = h.Add(g.window)
			default:
				other := h
				if i == argmin {
					other = h2
				}
				if other == timeMax {
					lim = timeMax // sole shard with pending work: see inject
				} else {
					lim = other.Add(g.window)
				}
			}
			if g.maxTime > 0 && lim > g.maxTime+1 {
				lim = g.maxTime + 1
			}
			g.sh[i].limit = lim
			g.sh[i].winCap = 0
			if budgetLeft > 0 {
				g.sh[i].winCap = g.engines[i].executed + budgetLeft
			}
			if g.hs[i] < lim || len(g.inbox[i]) > 0 {
				g.active = append(g.active, i)
			}
			g.pend[i] = timeMax
		}

		// Release: coordinator is worker 0; extra workers only when more
		// than one shard is active and CPUs are there to run them.
		g.widx++
		g.rounds++
		used := 1
		if n := len(g.active); n > 1 {
			used = g.spawned + 1
			if used > n {
				used = n
			}
		}
		g.used = used
		if used > 1 {
			g.remaining.Store(int32(used - 1))
			for w := 1; w < used; w++ {
				g.slots[w-1].post()
			}
			g.runShare(0)
			g.waitWorkers()
		} else {
			g.runShare(0)
		}

		for i, p := range g.panics {
			if p != nil {
				panic(fmt.Sprintf("sim: shard %d: %v", i, p))
			}
		}
		for _, e := range g.engines {
			if e.wdErr != nil {
				err := e.wdErr
				g.drainAll() // surface in-flight injections in the horizon report
				err.Diagnostics = append(g.horizonDiagnostics(), err.Diagnostics...)
				return err
			}
		}
		if g.budget > 0 && g.EventsExecuted() >= g.budget {
			g.drainAll() // surface in-flight injections in the horizon report
			return &WatchdogError{Time: g.horizon, Events: g.EventsExecuted(),
				Limit:       fmt.Sprintf("event limit %d (checked at window barriers)", g.budget),
				Stuck:       g.mergedStuck(),
				Diagnostics: append(g.horizonDiagnostics(), g.mergedDiagnostics()...)}
		}
		if !bgDiscarded && g.totalLive() == 0 {
			// Every process in the group has terminated: from here on,
			// background housekeeping is discarded without running,
			// matching the serial engine's end-of-run rule.
			bgDiscarded = true
			for _, e := range g.engines {
				e.bgDiscard = true
			}
		}
	}
}

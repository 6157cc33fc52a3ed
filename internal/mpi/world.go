package mpi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// worldEvents accumulates simulation events executed by every World.Run
// in the process, across goroutines — the benchmark's events/sec and
// allocs/event metrics are computed from deltas of this counter (see
// benchmark/child.go and EXPERIMENTS.md, "The yardstick").
var worldEvents atomic.Int64

// TotalEventsExecuted returns the simulation events executed by all
// completed World.Run calls in this process.
func TotalEventsExecuted() int64 { return worldEvents.Load() }

// worldSwitches and worldOps accumulate, like worldEvents, the coroutine
// switches into a rank (sim.Engine.Switches) and the RMA operations issued
// (the OpsIssued counter) of every completed World.Run: the switches-per-op
// pins in internal/bench divide the first by the second.
var worldSwitches, worldOps atomic.Int64

// TotalSwitches returns the coroutine switches into a process made by all
// completed World.Run calls in this process.
func TotalSwitches() int64 { return worldSwitches.Load() }

// TotalOpsIssued returns the RMA operations issued by all completed
// World.Run calls in this process.
func TotalOpsIssued() int64 { return worldOps.Load() }

// TotalInlinedAdvances is always 0: every Advance schedules its resume
// and parks, so no advance completes inline any more. It stays for the
// benchmark harness, which still reports the share it reads.
func TotalInlinedAdvances() int64 { return 0 }

// TotalShardRounds is always 0: every world runs on one engine, so no
// shard window barrier ever executes. It stays for the benchmark
// harness, which still reports the count it reads.
func TotalShardRounds() int64 { return 0 }

// worldPeakResidency tracks the maximum scheduler-queue occupancy seen
// by any engine of any completed World.Run since the last Take. Unlike
// the cumulative counters above it is a high-water gauge, so the bench
// harness reads it with swap-to-zero semantics rather than deltas.
var worldPeakResidency atomic.Int64

// TakePeakQueueResidency returns the highest scheduler-queue occupancy
// recorded by any World.Run since the previous call, and resets the
// gauge. The bench harness calls it once before a measured interval to
// discard history and once after to read the interval's peak.
func TakePeakQueueResidency() int { return int(worldPeakResidency.Swap(0)) }

func notePeakResidency(p int) {
	for {
		old := worldPeakResidency.Load()
		if int64(p) <= old || worldPeakResidency.CompareAndSwap(old, int64(p)) {
			return
		}
	}
}

// ProgressMode selects the asynchronous progress baseline configured for
// every rank of a world. Casper is not a mode: it is a library layered on
// top of ProgressNone, which is the whole point of the paper.
type ProgressMode int

// Progress modes.
const (
	// ProgressNone: software RMA targeted at a rank makes progress
	// only while that rank is inside an MPI call (default MPI
	// behaviour the paper describes).
	ProgressNone ProgressMode = iota
	// ProgressThread: a background progress thread per rank services
	// software RMA at any time, at the cost of thread-multiple
	// overhead on all MPI calls (and stolen compute cycles when
	// oversubscribed).
	ProgressThread
	// ProgressInterrupt: arriving software RMA raises a simulated
	// hardware interrupt on the busy target (the Cray DMAPP model).
	ProgressInterrupt
)

// String implements fmt.Stringer.
func (m ProgressMode) String() string {
	switch m {
	case ProgressNone:
		return "none"
	case ProgressThread:
		return "thread"
	case ProgressInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes a simulated MPI world.
type Config struct {
	Machine cluster.Machine
	N       int // world size (MPI_COMM_WORLD size, including any future ghosts)
	PPN     int // ranks per node
	Net     *netmodel.Params
	Seed    int64

	Progress             ProgressMode
	ThreadOversubscribed bool // ProgressThread: thread shares the rank's core (Thread(O)) rather than a dedicated one (Thread(D))

	Validate bool // enable the correctness validator (atomicity/ordering/lock checks)

	// Fault, when non-nil, enables the fault-injection layer: messages
	// travel over the reliable transport of reliable.go, the plan's
	// crashes/stalls/stragglers are armed, and health monitoring becomes
	// available. A nil plan leaves the seed code paths untouched.
	Fault *fault.Plan
	// Flow, when non-nil, enables credit-based flow control for
	// software RMA: origins hold a bounded credit window per target
	// and block in virtual time when it is exhausted, so a saturated
	// ghost's queue depth is bounded instead of growing without limit.
	// A nil config leaves the seed code paths untouched.
	Flow *FlowConfig
	// NoSimFastPath runs the world on the engine's eager schedule (see
	// sim.Engine.DisableFastPaths): every rank parks on its own calls
	// instead of having them served, and sim.Server backlogs, wire chains
	// and retransmission-timer chains each schedule every event on its
	// own. The schedule is bit-identical either way — this exists so tests
	// can hold those paths to it.
	NoSimFastPath bool
}

// World is one simulated MPI job: an engine, a placement, and N ranks.
type World struct {
	eng        *sim.Engine
	place      *cluster.Placement
	domains    []rankDomain // by world rank: where it runs (localityTo)
	net        *netmodel.Params
	cfg        Config
	ranks      []*Rank
	commWorld  *commGlobal
	segs       *segment // every segment allocated, for Close
	closed     bool
	segSeq     int
	winSeq     int
	commSeq    int
	validator  *Validator
	tracer     *trace.Tracer
	groupComms map[uint64][]*groupComms // CommFromGroup registry by groupHash of the rank set

	// groupHashHook replaces groupHash when set; tests force collisions
	// through it.
	groupHashHook func(sorted []int) uint64

	comms []*commGlobal // every live comm, for failure reaping
	wins  []*winGlobal  // every window, for wait-for diagnostics

	// Flow-control state; nil without a Config.Flow.
	flow *flowState

	// shared holds world-global state for layered runtimes (keyed
	// singletons in the single simulated address space).
	shared map[string]interface{}

	// pool recycles transient RMA message-path buffers (see pool.go).
	pool bufPool

	// opRecycle enables rmaOp header recycling (see Rank.getOp). Disabled
	// under a fault plan, where reliability packets retain op pointers
	// past terminal state.
	opRecycle bool

	// acksElided counts the deferred acks that never became an event of
	// their own (see rmaOp.ack): what the eager schedule pops beyond them.
	acksElided int64

	// Fault-injection state; all nil/zero without a Config.Fault plan.
	inj         *fault.Injector
	rel         *reliability
	health      *healthState
	deathHooks  []func(worldRank int) // fire on health-failure detection
	failedCount int
	p2pLost     int64 // p2p messages abandoned at dead destinations

	// App-rank recovery state (all nil/zero unless the plan schedules
	// AppCrashes). guards journals mutations of guarded window regions
	// (see RegionGuard); appRestore is the layered runtime's restore
	// callback (see SetAppRestore); failureEra counts completed
	// failure-agreement rounds, the "failure epoch" every survivor
	// converges on.
	guards     map[*segment][]*RegionGuard
	appRestore func(worldRank int) (bytes, replayed int, ok bool)
	failureEra int64
}

// NewWorld builds a world; ranks exist but are not running until Launch.
func NewWorld(cfg Config) (*World, error) {
	collectDroppedWorlds()
	if cfg.Net == nil {
		return nil, fmt.Errorf("mpi: Config.Net is nil")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	place, err := cluster.NewPlacement(cfg.Machine, cfg.N, cfg.PPN)
	if err != nil {
		return nil, err
	}
	w := &World{
		place:     place,
		domains:   domainsOf(place),
		net:       cfg.Net,
		cfg:       cfg,
		opRecycle: cfg.Fault == nil,
		eng:       sim.New(cfg.Seed),
	}
	// Hang diagnostics: if the timeline wedges, the error carries the
	// world's wait-for graph instead of leaving the user to guess.
	w.eng.SetDiagnoser(w)
	if cfg.NoSimFastPath {
		w.eng.DisableFastPaths()
	}
	if cfg.Validate {
		w.validator = newValidator()
	}
	if cfg.Fault != nil {
		inj, err := fault.NewInjector(cfg.Fault)
		if err != nil {
			return nil, err
		}
		w.inj = inj
		w.rel = newReliability(w)
		w.deathHooks = append(w.deathHooks, w.rel.onDeath, w.reclaimLocksAt)
		// A generous event limit, so that a retransmission livelock
		// fails fast instead of spinning.
		w.eng.SetWatchdog(250_000_000, 0)
	}
	if cfg.Flow != nil {
		w.flow = newFlowState(w, cfg.Flow)
	}
	if cfg.Fault != nil || cfg.Flow != nil {
		// A livelock (events spinning without the clock advancing) fails
		// fast, and its error carries the wait-for graph too.
		w.eng.SetStallWatchdog(2_000_000)
	}
	w.ranks = make([]*Rank, cfg.N)
	for i := range w.ranks {
		w.ranks[i] = newRank(w, i)
	}
	ranks := make([]int, cfg.N)
	for i := range ranks {
		ranks[i] = i
	}
	w.commWorld = w.newCommGlobal(ranks)
	return w, nil
}

// Engine returns the world's simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Placement returns the rank-to-hardware mapping.
func (w *World) Placement() *cluster.Placement { return w.place }

// Net returns the platform cost model.
func (w *World) Net() *netmodel.Params { return w.net }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Validator returns the correctness validator, or nil when disabled.
func (w *World) Validator() *Validator { return w.validator }

// SetTracer installs an operation tracer; pass nil to disable. Install
// before Launch.
func (w *World) SetTracer(t *trace.Tracer) { w.tracer = t }

// Tracer returns the installed tracer (possibly nil).
func (w *World) Tracer() *trace.Tracer { return w.tracer }

// RankByID returns the Rank object for a world rank (for inspection by
// tests and harnesses; application code receives its Rank from Launch).
func (w *World) RankByID(i int) *Rank { return w.ranks[i] }

// SharedState returns the world-global value under key, calling create
// to build it on first use. Layered runtimes (Casper) use it for
// singletons that live in the simulated job's single address space,
// such as the overload rebalancer.
func (w *World) SharedState(key string, create func() interface{}) interface{} {
	if w.shared == nil {
		w.shared = make(map[string]interface{})
	}
	v, ok := w.shared[key]
	if !ok {
		v = create()
		w.shared[key] = v
	}
	return v
}

// AddDeathHook registers fn to run (in engine context) when the failure
// detector confirms a rank dead, after the built-in transport failover
// and lock reclamation hooks. Layered runtimes (Casper) use it for
// recovery machinery such as sequencer succession. Hooks never fire in
// worlds without a fault plan.
func (w *World) AddDeathHook(fn func(worldRank int)) {
	w.deathHooks = append(w.deathHooks, fn)
}

// reclaimLocksAt is the built-in death hook that reclaims every lock
// manager owned by the dead rank, window by window in creation order:
// holds convert to counted shared holds, queued waiters are admitted,
// and later requests auto-admit, so no epoch blocks on a confirmed
// corpse (see lockManager.reclaim).
func (w *World) reclaimLocksAt(dead int) {
	if w.ranks[dead].down {
		// Down-recoverable rank: its lock managers keep arbitrating and
		// its holds stay held — the revived process resumes them.
		return
	}
	for _, g := range w.wins {
		if g.freed {
			continue
		}
		cr, ok := g.comm.index[dead]
		if !ok {
			continue
		}
		m := g.lockMgrs[cr]
		if m == nil {
			continue
		}
		if n := m.reclaim(); n > 0 {
			w.ranks[dead].stats[LocksReclaimed] += int64(n)
			if t := w.tracer; t.Enabled() {
				t.RecordFault(trace.Fault{Kind: "reclaim", Rank: dead, Peer: -1, At: w.eng.Now()})
			}
		}
	}
}

// SetAppRestore installs the layered runtime's restore callback for
// recovering application ranks. When the failure detector's agreement
// round on a recoverable crash completes, the runtime calls fn (engine
// context; it must not park) with the dead world rank; fn restores the
// rank's window state from its last closed-epoch snapshot plus the open
// epoch's journal and returns the snapshot bytes it had to ship from
// the buddy ghost and the ops it replayed, so the detector can charge
// the transfer before thawing the rank. ok=false means no guarded state
// exists (the rank crashed before its first window); the respawn then
// restores nothing.
func (w *World) SetAppRestore(fn func(worldRank int) (bytes, replayed int, ok bool)) {
	w.appRestore = fn
}

// Launch spawns every rank running main and schedules them at time 0,
// then arms any configured fault plan.
func (w *World) Launch(main func(r *Rank)) {
	for _, r := range w.ranks {
		r := r
		r.proc = r.eng.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			main(r)
		})
	}
	w.scheduleFaults()
}

// FaultsEnabled reports whether the world carries a fault-injection
// layer (Config.Fault was set).
func (w *World) FaultsEnabled() bool { return w.inj != nil }

// Run executes the simulation to completion.
func (w *World) Run() error {
	err := w.eng.Run()
	worldEvents.Add(w.eng.EventsExecuted())
	worldSwitches.Add(w.eng.Switches())
	var ops int64
	for _, r := range w.ranks {
		ops += r.stats[OpsIssued]
	}
	worldOps.Add(ops)
	notePeakResidency(w.eng.PeakQueueResidency())
	if err == nil {
		// Crashed ranks and ghosts are still parked mid-call; release
		// them so the world can be collected. Their deferred calls
		// (defer win.Free()) run here and stop at their first park,
		// after the counters above are taken and without moving the
		// clock. After an error they stay, for the deadlock/watchdog
		// report to describe.
		err = w.eng.Close()
	}
	return err
}

// Run is the convenience harness: build a world, run main on every rank,
// and return the world for inspection — statistics, the validator, and
// the window memory main kept references to, until the caller Closes it.
func Run(cfg Config, main func(r *Rank)) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.Launch(main)
	if err := w.Run(); err != nil {
		return nil, err
	}
	return w, nil
}

// segment is a block of simulated remotely accessible memory. Windows
// expose regions of segments; Casper's overlapping windows alias the
// same segment, and the validator keys conflict detection on (segment,
// offset) so aliased windows are checked coherently.
type segment struct {
	id   int
	data []byte   // nil once the world is closed
	next *segment // the world's segments, newest first (World.segs)
}

func (w *World) newSegment(n int) *segment {
	if w.closed {
		panic("mpi: window memory allocated on a closed world")
	}
	w.segSeq++
	w.segs = &segment{id: w.segSeq, data: takeSegment(n), next: w.segs}
	return w.segs
}

// Close releases the world's window memory for the next world to reuse
// (the segments of 32 KB and more that the world wrote more than half of;
// see segPool) and must follow Run; it is idempotent. Everything else about a finished world — rank
// statistics, the validator's violations, counters — stays readable, but
// window memory does not: slices returned by WinAllocate and Region.Bytes
// now alias memory another world may own, and any access through a window
// or region of this world panics. A harness that builds worlds in a loop
// and is done with each one's window bytes calls Close; a caller that
// inspects window memory after Run simply does not.
func (w *World) Close() {
	if w.closed {
		return
	}
	w.closed = true
	var free map[int][][]byte
	for s := w.segs; s != nil; s = s.next {
		if c, half := cap(s.data), len(s.data)/2; c >= segPoolMin {
			if d := dirtyLen(s.data, half); d > half {
				if free == nil {
					free = make(map[int][][]byte)
				}
				free[c] = append(free[c], s.data[:d])
			}
		}
		s.data = nil
	}
	w.segs = nil
	segPool.Lock()
	segPool.free = free
	segPool.Unlock()
}

// segPool is the process-wide free list of window memory, by capacity
// class: the segments the most recently closed world had written and
// handed back, less what a later world has taken — nothing older, so it
// never holds more than one world's windows. A sweep builds world after world of like shape, each
// mapping (and first-touching) tens of megabytes of windows the previous
// one just dropped; reusing them costs a clear. Worlds of parallel sweep
// points share the list, hence the mutex; it is taken once per segment
// and once per Close.
var segPool struct {
	sync.Mutex
	free map[int][][]byte
}

// collectEvery is the least heap growth NewWorld heads off with a
// collection (see collectDroppedWorlds).
const collectEvery = 16 << 20

// heapStats reads the runtime's heap metrics into samples kept here (local
// ones escape: metrics.Read would cost every world an object): the heap
// goal, the heap in use (live objects and dead ones not yet swept) and the
// process's cumulative heap allocation, which lastAllocs holds as of the
// previous NewWorld.
var heapStats struct {
	sync.Mutex
	sample     [3]metrics.Sample
	lastAllocs uint64
}

// collectDroppedWorlds runs a garbage collection when the world built
// last makes up most of the heap in use and the heap goal leaves the next
// world collectEvery bytes or more of room on top of it. A world keeps
// nearly all it allocates — ranks, windows, channel state, op headers —
// live until it is dropped, and the runtime sets each heap goal at twice
// the live heap its last mark found. Whether that mark fell late in a
// wide world, leaving the next worlds room to grow the heap over the dead
// one, or early, so that they reuse its memory after a collection due
// anyway, is a matter of timing: fig6a's peak RSS read 53 MB in one run
// and 78 MB in the next. Collecting here restarts the goal from what
// outlives a world, so each world's peak heap is its own. A heap mostly
// older than the last world is left to the runtime: a collection would
// free little the pacer has not counted. The GA worlds of fig8 are no
// exception, however many windows the free list holds: when a mark fell
// while two large GA worlds were live, the goal it left let the heap grow
// some 20 MB further before the runtime collected, and the peak RSS of a
// tce_ga pass read 205 or 230 MB by that timing alone (EXPERIMENTS.md
// "Collecting dropped worlds").
func collectDroppedWorlds() {
	h := &heapStats
	h.Lock()
	defer h.Unlock()
	h.sample[0].Name = "/gc/heap/goal:bytes"
	h.sample[1].Name = "/memory/classes/heap/objects:bytes"
	h.sample[2].Name = "/gc/heap/allocs:bytes"
	metrics.Read(h.sample[:])
	goal, inUse, allocs := h.sample[0].Value.Uint64(), h.sample[1].Value.Uint64(), h.sample[2].Value.Uint64()
	last := allocs - h.lastAllocs
	h.lastAllocs = allocs
	if 2*last >= inUse && goal >= inUse+collectEvery {
		runtime.GC()
	}
}

// segPoolMin is the smallest segment worth pooling: below it a fresh
// allocation is a size-classed span the runtime recycles cheaply itself,
// and a world of many small windows (the fault sweeps build hundreds)
// pays nothing here.
const segPoolMin = 32 << 10

// segClass rounds a poolable size up to its capacity class: eight classes
// per power of two, so a class wastes under an eighth of its bytes and the
// slightly different tile sizes of successive worlds still meet.
func segClass(n int) int {
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

// dirtyLen returns the length of b's prefix that ends at its last nonzero
// byte, or floor if that prefix is no longer than floor (the scan stops
// there). Close lists a segment as that prefix, so reuse clears what a
// world wrote and no more (everything past it, up to the capacity, is
// zero) — and lists it only when the world wrote past its midpoint. A
// window allocated large and touched in one corner (fig7's 128 KB windows
// carry one double) was never faulted in and costs nothing to allocate
// afresh; kept, its untouched pages would count toward the collector's
// heap goal and let that much real garbage pile up (dyn_binding's
// peak_rss_mb 74 -> 91 when every segment was listed).
func dirtyLen(b []byte, floor int) int {
	n := len(b)
	for n-8 >= floor && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > floor && b[n-1] == 0 {
		n--
	}
	return n
}

// takeSegment returns n zeroed bytes of window memory, recycled when the
// free list has a buffer of n's class.
func takeSegment(n int) []byte {
	if n < segPoolMin {
		return make([]byte, n)
	}
	c := segClass(n)
	segPool.Lock()
	var buf []byte
	if l := segPool.free[c]; len(l) > 0 {
		buf, l[len(l)-1] = l[len(l)-1], nil
		segPool.free[c] = l[:len(l)-1]
	}
	segPool.Unlock()
	if buf == nil {
		return make([]byte, n, c)
	}
	clear(buf)
	return buf[:n]
}

// Region is a window's view of one rank's exposed memory.
type Region struct {
	seg *segment
	off int
	n   int
}

// Bytes returns the backing memory of the region.
func (r Region) Bytes() []byte { return r.seg.data[r.off : r.off+r.n] }

// Sub returns a sub-region [off, off+n) of r.
func (r Region) Sub(off, n int) Region {
	if off < 0 || n < 0 || off+n > r.n {
		panic(fmt.Sprintf("mpi: sub-region [%d,%d) outside region of %d bytes", off, off+n, r.n))
	}
	return Region{seg: r.seg, off: r.off + off, n: n}
}

// Root returns the region covering the entire backing segment — the
// whole node's shared window memory mapped into a ghost's address space.
func (r Region) Root() Region {
	return Region{seg: r.seg, off: 0, n: len(r.seg.data)}
}

// Rank is one simulated MPI process. It implements Env.
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc

	// eng/pool/net/domains alias the world's engine, buffer pool, cost
	// model and rank domains: one load instead of two on the message path
	// (reading them through r.w measured 3-6 % slower on fig5a at scale
	// 0.5, 2-vCPU Xeon).
	eng     *sim.Engine
	pool    *bufPool
	net     *netmodel.Params
	domains []rankDomain

	// opFree recycles rmaOp headers issued by this rank (acks always land
	// back at the origin, so the freelist never crosses ranks): a stack
	// linked through rmaOp.link. See getOp/putOp.
	opFree *rmaOp

	engine  rankEngine
	mailbox mailbox
	issueQ  issueQueue // RMA calls queued for the event loop to issue

	groupUses map[*groupComms]int // per-rank CommFromGroup call counts
	p2pLast   map[int]sim.Time    // per-destination FIFO delivery horizon

	failed       bool     // ground-truth crash (see health.go)
	down         bool     // recoverable app crash in progress (see crashAppRank)
	stalledUntil sim.Time // progress engine frozen until this time

	stats Counters // see counterTable; Stats fills PeakQueueResidency on read
}

func newRank(w *World, id int) *Rank {
	r := &Rank{w: w, id: id, eng: w.eng, pool: &w.pool, net: w.net, domains: w.domains}
	r.engine.init(r)
	r.issueQ.r = r
	return r
}

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Rank implements Env.
func (r *Rank) Rank() int { return r.id }

// Size implements Env.
func (r *Rank) Size() int { return r.w.cfg.N }

// CommWorld implements Env: the MPI_COMM_WORLD handle of this rank.
func (r *Rank) CommWorld() *Comm { return &Comm{g: r.w.commWorld, me: r.id, r: r} }

// Now implements Env. It settles first: a rank with calls queued is
// ahead of the clock (see issue.go).
func (r *Rank) Now() sim.Time {
	r.settle()
	return r.eng.Now()
}

// Engine returns the simulation engine this rank runs on (the world's).
func (r *Rank) Engine() *sim.Engine { return r.eng }

// Proc returns the simulation process of this rank; harnesses use it for
// low-level waiting.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Compute implements Env: application computation of duration d. An
// oversubscribed progress thread (Thread(O)) polls on the same core, so
// compute is slowed by a constant factor; interrupts and the thread's AM
// service steal further cycles. These are the effects that make
// thread-based progress degrade application compute in the paper's
// NWChem results (Section IV-D).
func (r *Rank) Compute(d sim.Duration) {
	if r.w.cfg.Progress == ProgressThread && r.w.cfg.ThreadOversubscribed &&
		r.w.net.OversubCompute > 1 {
		d = sim.Duration(float64(d) * r.w.net.OversubCompute)
	}
	if r.w.inj != nil {
		if f := r.w.inj.ComputeFactor(r.w.place.Node(r.id)); f != 1 {
			d = sim.Duration(float64(d) * f)
		}
	}
	var mark sim.Duration // stolen time when the computation starts
	if d >= 0 && r.issueQ.settleWith(issueItem{kind: itemAdvance, d: d}) {
		mark = r.issueQ.mark
	} else {
		r.settle() // a negative d panics in Advance, in the process, once settled
		mark = r.engine.stolen
		r.proc.Advance(d)
	}
	for r.engine.stolen > mark {
		extra := r.engine.stolen - mark
		mark = r.engine.stolen
		r.proc.Advance(extra)
	}
}

// mpiEnter marks the rank inside an MPI call, paying the call overhead
// and draining deferred software AMs (polling progress). It settles the
// rank's queued calls first, with its own entry queued behind them as a
// bare call (see issue.go): the event loop enters MPI, charges the call
// overhead and leaves again at the instant the rank resumes, so entering
// once more here, with no event in between, polls nothing new.
func (r *Rank) mpiEnter() {
	if r.issueQ.settleWith(issueItem{kind: itemCall}) {
		r.engine.enterMPI()
		return
	}
	r.engine.enterMPI()
	r.proc.Advance(r.callCost())
}

func (r *Rank) mpiLeave() { r.engine.leaveMPI() }

// callCost is the cost of entering an MPI call, inflated by
// thread-multiple safety when a progress thread is configured.
func (r *Rank) callCost() sim.Duration {
	return r.scaleBySafety(r.w.net.CallOverhead)
}

// issueCost is the origin-side cost of issuing one RMA operation.
func (r *Rank) issueCost() sim.Duration {
	return r.scaleBySafety(r.w.net.RMAIssue)
}

func (r *Rank) scaleBySafety(d sim.Duration) sim.Duration {
	if r.w.cfg.Progress == ProgressThread {
		return sim.Duration(float64(d) * r.w.net.ThreadSafety)
	}
	return d
}

// rankDomain is where a rank runs: its node and, within the node, its
// NUMA domain.
type rankDomain struct{ node, numa int32 }

// domainsOf tabulates every rank's domain once per world, so the locality
// of a message costs two loads instead of the placement arithmetic.
func domainsOf(p *cluster.Placement) []rankDomain {
	d := make([]rankDomain, p.N())
	for i := range d {
		d[i] = rankDomain{int32(p.Node(i)), int32(p.NUMA(i))}
	}
	return d
}

// localityTo returns the placement class of the (r, dest) pair.
func (r *Rank) localityTo(dest int) netmodel.Locality {
	a, b := r.domains[r.id], r.domains[dest]
	return netmodel.LocalityOf(a.node == b.node, a == b)
}

// transferTo returns the wire time for n bytes from r to world rank dest.
func (r *Rank) transferTo(dest, n int) sim.Duration {
	loc := r.localityTo(dest)
	return r.net.Transfer(loc != netmodel.LocInter, loc == netmodel.LocIntra, n)
}

// faultOp is what one RMA operation of a fault-plan world allocates. Every
// op of such a world travels as a packet, so header, extension and the
// op's first packet are one object, within the 320-byte size class
// (TestRMAOpSize).
type faultOp struct {
	op  rmaOp
	x   opExt
	pkt packet
}

// getOp fetches a zeroed rmaOp, reusing a recycled header when one is
// available. The freelist is per-rank: every op returns to its origin
// (ackDelivered runs there).
func (r *Rank) getOp() *rmaOp {
	o := r.opFree
	if o == nil {
		cfg := &r.w.cfg
		if cfg.Fault != nil {
			all := &faultOp{}
			all.op.ext, all.x.relPkt = &all.x, &all.pkt
			return &all.op
		}
		if cfg.Flow != nil || cfg.Validate {
			// Every op of such a world needs its extension (a credit, a
			// validator record): one object for both.
			both := &struct {
				op rmaOp
				x  opExt
			}{}
			both.op.ext = &both.x
			return &both.op
		}
		return &rmaOp{}
	}
	r.opFree = o.next()
	o.link.Next = nil
	return o
}

// putOp returns an op header to the issuing rank's freelist once nothing
// can reference it again. No-op under a fault plan (see opRecycle).
func (r *Rank) putOp(o *rmaOp) {
	if !r.w.opRecycle {
		return
	}
	x := o.ext
	*o = rmaOp{}
	if x != nil {
		*x = opExt{}
		o.ext = x
	}
	if r.opFree != nil { // a nil *rmaOp stored in the interface would not read as nil
		o.link.Next = r.opFree
	}
	r.opFree = o
}

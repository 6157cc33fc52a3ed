package mpi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// benchmark/child.go and EXPERIMENTS.md).
var worldEvents atomic.Int64

// TotalEventsExecuted returns the simulation events executed by all
// completed World.Run calls in this process.
func TotalEventsExecuted() int64 { return worldEvents.Load() }

// TotalInlinedAdvances is always 0: every Advance schedules its resume
// and parks, so no advance completes inline any more. It stays for the
// benchmark harness, which still reports the share it reads.
func TotalInlinedAdvances() int64 { return 0 }

// worldShardRounds accumulates shard-group window barriers across all
// sharded World.Run calls, mirroring worldEvents — the synchronization
// cost the benchmark reports as sim.shard_rounds.
var worldShardRounds atomic.Int64

// TotalShardRounds returns the window barriers executed by all
// completed sharded World.Run calls in this process.
func TotalShardRounds() int64 { return worldShardRounds.Load() }

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
	// Errors selects the error-handler model; the zero value,
	// ErrorsAreFatal, panics exactly as the runtime always has.
	Errors ErrorMode
	// WatchdogEvents / WatchdogTime bound a run (see sim.SetWatchdog).
	// Zero means default: unlimited normally, a generous event limit
	// when a fault plan is configured (so a retransmission livelock
	// fails fast instead of spinning).
	WatchdogEvents int64
	WatchdogTime   sim.Time
	// NoSimFastPath runs the world on the engine's eager schedule (see
	// sim.Engine.DisableFastPaths): advance chains, sim.Server backlogs,
	// wire chains and retransmission-timer chains each schedule every
	// event on its own. The schedule is bit-identical either way — this
	// exists so tests can hold those paths to it.
	NoSimFastPath bool
	// Shards > 0 enables sharded execution: the world's processes are
	// partitioned across one simulation engine per node (ghosts co-located
	// with the app ranks they serve), executed by up to Shards worker
	// goroutines under conservative safe windows bounded by the network
	// model's minimum cross-node latency (netmodel.Params.Lookahead).
	// Experiment output is identical to the serial engine's at seed 42 and
	// at the seeds benchmark/golden.json lists; it is known to differ at
	// others (ROADMAP B). Worlds the sharded engine cannot run (fault plans,
	// flow control, the validator, or a single node) silently fall back to
	// the serial engine.
	Shards int
}

// World is one simulated MPI job: an engine, a placement, and N ranks.
type World struct {
	eng        *sim.Engine
	place      *cluster.Placement
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

	// memo caches the net cost-model lookups (latency memoization).
	// Owned by this world's single simulation goroutine (per-shard
	// instances live in sharded; every rank reaches its own through
	// Rank.memo).
	memo *netmodel.Memo

	// opRecycle enables rmaOp header recycling (see Rank.getOp). Disabled
	// under a fault plan, where reliability packets retain op pointers
	// past terminal state.
	opRecycle bool

	// sharded holds the parallel-execution state when Config.Shards
	// selected (and the world is eligible for) the sharded engine; nil
	// means the classic serial engine. While sharded, eng is nil so any
	// code path not routed through per-rank engines fails loudly.
	sharded *shardState

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
		net:       cfg.Net,
		cfg:       cfg,
		memo:      netmodel.NewMemo(cfg.Net),
		opRecycle: cfg.Fault == nil,
	}
	if shardEligible(cfg, place) {
		w.sharded = newShardState(w)
	} else {
		w.eng = sim.New(cfg.Seed)
	}
	if cfg.NoSimFastPath {
		for _, e := range w.allEngines() {
			e.DisableFastPaths()
		}
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
	}
	if cfg.Flow != nil {
		w.flow = newFlowState(w, cfg.Flow)
	}
	maxEvents := cfg.WatchdogEvents
	if maxEvents == 0 && cfg.Fault != nil {
		maxEvents = 250_000_000
	}
	if maxEvents != 0 || cfg.WatchdogTime != 0 {
		if s := w.sharded; s != nil {
			s.group.SetEventBudget(maxEvents)
			s.group.SetMaxTime(cfg.WatchdogTime)
		} else {
			w.eng.SetWatchdog(maxEvents, cfg.WatchdogTime)
		}
	}
	if cfg.Fault != nil || cfg.Flow != nil {
		// Hang diagnostics: if the timeline wedges (deadlock) or spins
		// without advancing (livelock), the error carries a wait-for
		// graph instead of leaving the user to guess.
		w.eng.SetStallWatchdog(2_000_000)
		w.eng.AddDiagnostic(w.waitDiagnostics)
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

// Engine returns the simulation engine — nil under sharded execution,
// where there is one engine per node (see Rank.Engine).
func (w *World) Engine() *sim.Engine { return w.eng }

// Sharded reports whether the world runs on the sharded engine.
func (w *World) Sharded() bool { return w.sharded != nil }

// ShardCount returns the number of shards (simulation engines) of a
// sharded world, and 0 for a serial one.
func (w *World) ShardCount() int {
	if w.sharded == nil {
		return 0
	}
	return len(w.sharded.engines)
}

// ShardRounds returns how many window barriers the shard group has
// executed (0 for a serial world) — the synchronization cost of the
// run, see sim.ShardGroup.Rounds.
func (w *World) ShardRounds() int64 {
	if w.sharded == nil {
		return 0
	}
	return w.sharded.group.Rounds()
}

// allEngines returns every simulation engine of the world: the per-node
// shard engines, or the single serial engine.
func (w *World) allEngines() []*sim.Engine {
	if s := w.sharded; s != nil {
		return s.engines
	}
	return []*sim.Engine{w.eng}
}

// now returns the current global virtual time: the serial engine's
// clock, or the maximum shard clock (only meaningful between windows —
// i.e. after Run returns).
func (w *World) now() sim.Time {
	if s := w.sharded; s != nil {
		var t sim.Time
		for _, e := range s.engines {
			if n := e.Now(); n > t {
				t = n
			}
		}
		return t
	}
	return w.eng.Now()
}

// schedule runs fn at virtual time at on engine dst, from the engine
// context src. Same-engine scheduling (and every serial world) goes
// straight to the event heap; cross-shard scheduling goes through the
// shard group's mailboxes, which enforce the lookahead contract.
func (w *World) schedule(src, dst *sim.Engine, at sim.Time, fn func()) {
	if src == dst {
		src.At(at, fn)
		return
	}
	w.sharded.group.Inject(src, dst, at, fn)
}

// scheduleRun is schedule for closure-free Runner payloads.
func (w *World) scheduleRun(src, dst *sim.Engine, at sim.Time, r sim.Runner) {
	if src == dst {
		src.AtRun(at, r)
		return
	}
	w.sharded.group.InjectRun(src, dst, at, r)
}

// Placement returns the rank-to-hardware mapping.
func (w *World) Placement() *cluster.Placement { return w.place }

// Net returns the platform cost model.
func (w *World) Net() *netmodel.Params { return w.net }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Validator returns the correctness validator, or nil when disabled.
func (w *World) Validator() *Validator { return w.validator }

// PoolOutstanding returns the number of message-path buffers handed out
// by the world's buffer pool(s) and not yet returned. Zero once the
// world has quiesced; anything else is a leak on an error/early-return
// path.
func (w *World) PoolOutstanding() int64 {
	if s := w.sharded; s != nil {
		var n int64
		for i := range s.pools {
			n += s.pools[i].Outstanding()
		}
		return n
	}
	return w.pool.Outstanding()
}

// SetTracer installs an operation tracer; pass nil to disable. Install
// before Launch. The tracer records from every rank into one stream, so
// it is incompatible with sharded execution.
func (w *World) SetTracer(t *trace.Tracer) {
	if w.sharded != nil && t.Enabled() {
		panic("mpi: tracing is not supported under sharded execution (set Config.Shards = 0)")
	}
	w.tracer = t
}

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
	if s := w.sharded; s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
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
		if g.freed.Load() {
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
			w.ranks[dead].stats.LocksReclaimed += int64(n)
			if t := w.tracer; t.Enabled() {
				t.RecordFault(trace.Fault{Kind: "reclaim", Rank: dead, Peer: -1, At: w.eng.Now()})
			}
		}
	}
}

// NoteEpochRelock, NoteSuccession, NoteCmdResend and NoteRebind credit
// recovery actions performed by layered runtimes to the acting rank's
// counters (see RankStats).
func (w *World) NoteEpochRelock(worldRank int) { w.ranks[worldRank].stats.EpochRelocks++ }

// NoteSuccession records a sequencer takeover by worldRank.
func (w *World) NoteSuccession(worldRank int) { w.ranks[worldRank].stats.Successions++ }

// NoteCmdResend records one logged-command retransmission by worldRank.
func (w *World) NoteCmdResend(worldRank int) { w.ranks[worldRank].stats.CmdResends++ }

// NoteRebind records one bound-target failover performed by worldRank.
func (w *World) NoteRebind(worldRank int) { w.ranks[worldRank].stats.Rebinds++ }

// NoteSnapshot records one epoch-close snapshot of n bytes shipped by
// worldRank (a ghost) to its buddy.
func (w *World) NoteSnapshot(worldRank, n int) {
	st := &w.ranks[worldRank].stats
	st.SnapshotsTaken++
	st.SnapshotBytes += int64(n)
}

// NoteReplayedOps records n journaled RMA ops replayed by worldRank
// during a restore.
func (w *World) NoteReplayedOps(worldRank, n int) {
	w.ranks[worldRank].stats.ReplayedOps += int64(n)
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

// Failed reports this rank's ground-truth crash state.
func (r *Rank) Failed() bool { return r.failed }

// Down reports whether the rank is mid-recovery from a recoverable app
// crash: frozen and unreachable, but due to be respawned.
func (r *Rank) Down() bool { return r.down }

// FailedCount returns the number of ranks that have crashed.
func (w *World) FailedCount() int { return w.failedCount }

// Run executes the simulation to completion.
func (w *World) Run() error {
	var err error
	if s := w.sharded; s != nil {
		err = s.group.Run()
		worldEvents.Add(s.group.EventsExecuted())
		worldShardRounds.Add(s.group.Rounds())
	} else {
		err = w.eng.Run()
		worldEvents.Add(w.eng.EventsExecuted())
	}
	for _, e := range w.allEngines() {
		notePeakResidency(e.PeakQueueResidency())
		if err == nil {
			// Crashed ranks and ghosts are still parked mid-call; release
			// them so the world can be collected. Their deferred calls
			// (defer win.Free()) run here and stop at their first park,
			// after the counters above are taken and without moving the
			// clock. After an error they stay, for the deadlock/watchdog
			// report to describe.
			err = e.Close()
		}
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
	if s := w.sharded; s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if w.closed {
		panic("mpi: window memory allocated on a closed world")
	}
	w.segSeq++
	w.segs = &segment{id: w.segSeq, data: takeSegment(n), next: w.segs}
	return w.segs
}

// Close releases the world's window memory for the next world to reuse
// (the segments of 32 KB and more that the world wrote more than half of;
// see segPool) and must follow Run; it is idempotent. Everything else
// about a finished world — rank statistics, the validator, counters —
// stays readable, but
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

// Len returns the region size in bytes.
func (r Region) Len() int { return r.n }

// Sub returns a sub-region [off, off+n) of r.
func (r Region) Sub(off, n int) Region {
	if off < 0 || n < 0 || off+n > r.n {
		panic(fmt.Sprintf("mpi: sub-region [%d,%d) outside region of %d bytes", off, off+n, r.n))
	}
	return Region{seg: r.seg, off: r.off + off, n: n}
}

// Offset returns the region's byte offset within its backing segment.
// Casper uses it to translate a user-rank displacement into a
// ghost-window displacement ("X + P1's offset in the ghost process
// address space", Section II-C).
func (r Region) Offset() int { return r.off }

// Root returns the region covering the entire backing segment — the
// whole node's shared window memory mapped into a ghost's address space.
func (r Region) Root() Region {
	return Region{seg: r.seg, off: 0, n: len(r.seg.data)}
}

// SameSegment reports whether two regions alias the same backing
// segment.
func (r Region) SameSegment(o Region) bool { return r.seg == o.seg }

// Rank is one simulated MPI process. It implements Env.
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc

	// eng/pool/memo are the rank's simulation engine, buffer pool and
	// cost-model memo. Serial worlds alias the world-global instances;
	// sharded worlds point at the rank's node shard, which is what keeps
	// pooling and memoization lock-free with shards running in parallel.
	eng  *sim.Engine
	pool *bufPool
	memo *netmodel.Memo

	// opFree recycles rmaOp headers issued by this rank (acks always land
	// back at the origin, so the freelist never crosses ranks): a stack
	// linked through rmaOp.link. See getOp/putOp.
	opFree *rmaOp

	engine  rankEngine
	mailbox mailbox

	groupUses map[*groupComms]int // per-rank CommFromGroup call counts
	p2pLast   map[int]sim.Time    // per-destination FIFO delivery horizon
	locTo     []uint8             // lazy per-destination locality class (0xFF unset)

	failed       bool     // ground-truth crash (see health.go)
	down         bool     // recoverable app crash in progress (see crashAppRank)
	stalledUntil sim.Time // progress engine frozen until this time

	lastErr  *MPIError // first unconsumed error under ErrorsReturn
	errCount int64

	stats RankStats
}

// RankStats counts per-rank activity, used by the experiment harnesses
// (e.g. Fig. 4(c) plots the interrupt count).
type RankStats struct {
	SoftwareAMs  int64        // software RMA ops processed at this rank
	HardwareOps  int64        // hardware RMA ops applied at this rank
	Interrupts   int64        // interrupts raised (ProgressInterrupt)
	StolenTime   sim.Duration // compute cycles stolen by interrupts/oversubscribed threads
	BytesIn      int64        // RMA payload bytes received
	OpsIssued    int64        // RMA ops issued from this rank
	MessagesSent int64        // point-to-point messages sent

	// Reliability counters (all zero without a fault plan).
	Retransmits    int64 // packets retransmitted after a loss
	RetryTimeouts  int64 // retransmission timeouts that took action
	DupsSuppressed int64 // duplicate packets discarded at this rank
	Reroutes       int64 // ops failed over to a replacement target
	Abandoned      int64 // ops given up on (error surfaced)
	CorruptDropped int64 // packets dropped at this rank on CRC mismatch

	// Flow-control counters (all zero without a FlowConfig).
	CreditStalls    int64        // issues that had to wait for a credit
	CreditStallTime sim.Duration // virtual time spent waiting for credits
	BacklogDropped  int64        // ops dropped after a credit timeout

	// Recovery counters (all zero without a fault plan). Suspects /
	// FalseSuspects / LocksReclaimed accrue on the rank the detector is
	// watching; the rest accrue on the rank performing the recovery.
	Suspects       int64 // times this rank entered the suspect phase
	FalseSuspects  int64 // suspicions cleared by resumed beacons (stalls)
	LocksReclaimed int64 // lock holds/waiters reclaimed from this rank's managers after death
	EpochRelocks   int64 // mid-epoch lock-set re-opens onto surviving progress ranks
	Successions    int64 // sequencer takeovers performed by this rank
	CmdResends     int64 // logged commands retransmitted by a successor
	Rebinds        int64 // bound targets failed over to a surviving ghost

	// App-rank recovery counters (all zero unless the plan schedules
	// AppCrashes). AppRecoveries accrues on the recovered rank;
	// SnapshotsTaken / SnapshotBytes / ReplayedOps accrue on the ghost
	// performing the snapshot or replay.
	AppRecoveries  int64 // recoverable crashes this rank came back from
	SnapshotsTaken int64 // epoch-close snapshots shipped by this ghost
	SnapshotBytes  int64 // bytes of window state shipped to buddy ghosts
	ReplayedOps    int64 // journaled RMA ops replayed during a restore

	// PeakQueueResidency is the high-water mark of events pending in the
	// scheduler of the engine this rank runs on (the world engine in
	// serial mode, the rank's node shard in sharded mode) — the
	// scheduler's working-set size. Filled on read by Stats.
	PeakQueueResidency int
}

func newRank(w *World, id int) *Rank {
	r := &Rank{w: w, id: id}
	if s := w.sharded; s != nil {
		shard := s.shardOf[id]
		r.eng = s.engines[shard]
		r.pool = &s.pools[shard]
		r.memo = s.memos[shard]
	} else {
		r.eng = w.eng
		r.pool = &w.pool
		r.memo = w.memo
	}
	r.engine.init(r)
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

// Now implements Env.
func (r *Rank) Now() sim.Time { return r.eng.Now() }

// Engine returns the simulation engine this rank runs on: the world
// engine in serial mode, the rank's node shard in sharded mode.
func (r *Rank) Engine() *sim.Engine { return r.eng }

// Proc returns the simulation process of this rank; harnesses use it for
// low-level waiting.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Stats returns a copy of this rank's counters.
func (r *Rank) Stats() RankStats {
	st := r.stats
	st.PeakQueueResidency = r.eng.PeakQueueResidency()
	return st
}

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
	mark := r.engine.stolen
	r.proc.Advance(d)
	for r.engine.stolen > mark {
		extra := r.engine.stolen - mark
		mark = r.engine.stolen
		r.proc.Advance(extra)
	}
}

// mpiEnter marks the rank inside an MPI call, paying the call overhead
// and draining deferred software AMs (polling progress).
func (r *Rank) mpiEnter() {
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

// localityTo returns the placement class of the (r, dest) pair, cached
// so the placement arithmetic runs once per pair instead of per message.
func (r *Rank) localityTo(dest int) netmodel.Locality {
	if r.locTo == nil {
		lc := make([]uint8, r.w.cfg.N)
		for i := range lc {
			lc[i] = 0xFF
		}
		r.locTo = lc
	}
	if r.locTo[dest] == 0xFF {
		p := r.w.place
		r.locTo[dest] = uint8(netmodel.LocalityOf(p.SameNode(r.id, dest), p.SameNUMA(r.id, dest)))
	}
	return netmodel.Locality(r.locTo[dest])
}

// transferTo returns the wire time for n bytes from r to world rank dest.
func (r *Rank) transferTo(dest, n int) sim.Duration {
	return r.memo.TransferLoc(r.localityTo(dest), n)
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
// (ackDelivered runs there), so recycling needs no locking even with
// shards issuing in parallel.
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

// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled coroutine processes running in virtual time.
//
// The engine executes exactly one goroutine at a time: either the event
// loop itself (Run, or runWindow under a ShardGroup) or the single process
// it switched into. Processes are runtime coroutines (iter.Pull): resuming
// one is a direct goroutine-to-goroutine switch on the same thread, and a
// process hands control back by parking (blocking on a simulation
// primitive) or by returning. Because of this strict alternation,
// simulation state — including state shared between processes — needs no
// locking, and runs are fully deterministic given a seed.
//
// All simulated time is virtual: a Proc that calls Advance consumes
// simulated nanoseconds, not wall-clock time.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Time as microseconds, the natural scale of the models
// in this repository.
func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// String formats a Duration as microseconds.
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }

// Micros converts a Duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis converts a Duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// Seconds converts a Duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts an absolute Time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add offsets a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds builds a Duration from a floating-point microsecond count.
func Microseconds(us float64) Duration { return Duration(us * 1e3) }

// eventKind discriminates the event payload, letting the hot resume
// paths (Advance, wake, Spawn start) carry a *Proc directly instead of
// allocating a closure per event.
type eventKind uint8

const (
	evRun    eventKind = iota // step a Runner (a closure scheduled by At is a funcRunner)
	evResume                  // resume a parked process
	evStart                   // first activation of a spawned process
)

// Runner is a closure-free event callback: long-lived objects that pass
// through several scheduled stages (e.g. an RMA operation going
// arrival → service → ack) implement Step and are scheduled with AtRun,
// so the steady-state event loop allocates nothing per stage.
type Runner interface {
	Step()
}

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq) so runs are deterministic. Background events (bg) are
// housekeeping — heartbeats, retransmission timers, fault schedules —
// that must not keep the simulation alive: once every process has
// terminated they are discarded without executing or advancing the
// clock, so enabling such machinery never changes a run's end time.
type event struct {
	at   Time
	seq  uint64
	p    *Proc  // evResume/evStart only
	run  Runner // evRun only
	kind eventKind
	bg   bool
}

// evKey is the (at, seq) ordering key of an event — the total order the
// scheduler must pop in.
type evKey struct {
	at  Time
	seq uint64
}

// before reports (at, seq) order.
func (k evKey) before(o evKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// SchedulerState is a diagnostic snapshot of the event scheduler,
// embedded in watchdog/stall/deadlock reports so a frozen-clock
// diagnosis names the blocking structure, not just the timestamp.
type SchedulerState struct {
	Depth  int  // pending events
	Peak   int  // lifetime high-water mark of Depth
	SpanLo Time // active ladder-bucket span start
	SpanHi Time // exclusive span end; zero when the queue is empty
}

// String formats the snapshot as a single diagnostic line.
func (s SchedulerState) String() string {
	line := fmt.Sprintf("scheduler: ladder depth=%d peak=%d", s.Depth, s.Peak)
	if s.SpanHi > 0 {
		line += fmt.Sprintf(" active=[%v,%v)", s.SpanLo, s.SpanHi)
	}
	return line
}

// schedQ is the engine's pending-event scheduler: the ladder queue plus
// the residency bookkeeping. Every scheduled event is pushed to it and
// popped from it. The next-event register a shard's window-horizon
// computation reads (minTime) is the ladder's own bottom slot, an O(1)
// field load.
type schedQ struct {
	n    int // pending events
	peak int // high-water mark of n (see Engine.PeakQueueResidency)

	// shadow, nil outside tests, is a reference queue kept in lockstep
	// behind the ladder, which always answers: the shadow is handed every
	// push and the key of every event popped. (Declared before lad so that
	// the test every push and pop makes of it reads the line n is on.)
	shadow shadowQueue

	lad ladder
}

// shadowQueue is what a test hangs behind a schedQ (see schedQ.shadow).
// popped must remove the reference's own minimum and panic unless it has
// the key the ladder just yielded. (It is told the key rather than handed
// the event: a pointer passed to an interface method escapes, and the
// event loops keep their pop slot on the stack.) elided is handed every
// key Engine.Elide is: one the eager schedule pops, the engine perhaps
// not.
type shadowQueue interface {
	push(ev event)
	popped(q *schedQ, k evKey)
	elided(k evKey)
}

// newEngineHook is handed every engine New builds, before its first
// event: nil, except while a test has set it (export_test.go). The shadow
// oracle hangs its reference queue behind the ladder here — comparing what
// two schedulers render hides a misordered pop whenever the swapped events
// commute; the lockstep compares the pops themselves — and the fast-path
// identity test puts the engine on the eager schedule.
var newEngineHook func(e *Engine)

func (q *schedQ) len() int { return q.n }

// minTime returns the earliest scheduled time; the queue must be
// non-empty.
func (q *schedQ) minTime() Time { return q.lad.minTime() }

// minEvent returns the earliest pending event without popping it, for
// diagnostics; the queue must be non-empty.
func (q *schedQ) minEvent() event { return q.lad.minEvent() }

func (q *schedQ) push(ev event) {
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	if q.shadow != nil {
		q.shadow.push(ev)
	}
	q.lad.push(ev)
}

// popInto removes the minimum, writing it to *dst (see ladder.popInto).
// The ladder pop is written out on both sides of the shadow test on
// purpose: one pop followed by the test read about 2 % slower on fig5a
// (11 of 14 alternating pairs) when the shadow hook took this shape.
func (q *schedQ) popInto(dst *event) {
	q.n--
	if q.shadow != nil {
		q.lad.popInto(dst)
		q.shadow.popped(q, evKey{at: dst.at, seq: dst.seq})
		return
	}
	q.lad.popInto(dst)
}

// Engine is a discrete-event simulator. Create one with New, spawn
// processes with Spawn, then call Run.
type Engine struct {
	now    Time
	cur    uint64 // seq of the event being executed (see Passed)
	events schedQ
	seq    uint64
	procs  []*Proc
	live   int
	seed   int64
	rng    *rand.Rand // seeded by Rand on first use

	// lastElided is the latest key handed to Elide: the eager schedule's
	// clock reaches it before the run ends.
	lastElided evKey

	executed  int64 // events executed, for the watchdog
	switches  int64 // transfers into a process (see Switches)
	fastOff   bool  // eager schedule: nothing served, no reserved-seq FIFOs
	maxEvents int64 // watchdog: 0 disables
	maxTime   Time  // watchdog: 0 disables

	// Stall watchdog: trip when stallEvents execute without the clock
	// advancing (a livelock spinning at one instant). 0 disables.
	stallEvents     int64
	lastAdvance     Time  // now at the last observed clock advance
	lastAdvanceExec int64 // executed count when the clock last advanced

	diag Diagnoser // extra context appended to errors

	panicked bool
	panicVal interface{}

	// Sharded execution (see ShardGroup). limit is the exclusive upper
	// bound of the current safe window: runWindow stops before executing
	// any event at limit or beyond. shard is this engine's index within
	// its group; bgDiscard is set by the coordinator once no process
	// anywhere in the group is alive, so background housekeeping stops
	// exactly as in a serial run; wdErr records a watchdog trip inside
	// runWindow for the coordinator.
	limit     Time
	winCap    int64 // absolute executed-events bound for this window (0 = none)
	shard     int
	bgDiscard bool
	wdErr     *WatchdogError
}

// timeMax is the largest representable Time; a serial engine's window
// limit, meaning "no limit".
const timeMax = Time(math.MaxInt64)

// New returns an Engine whose random source is seeded with seed, so that
// any randomized model decisions are reproducible.
func New(seed int64) *Engine {
	e := &Engine{
		seed:  seed,
		limit: timeMax,
	}
	if newEngineHook != nil {
		newEngineHook(e)
	}
	return e
}

// PeakQueueResidency returns the high-water mark of events pending in
// the scheduler over the engine's lifetime: the scheduler's working-set size, which the benchmark
// reports as sim.peak_queue_residency.
func (e *Engine) PeakQueueResidency() int { return e.events.peak }

// SchedulerState snapshots the scheduler for diagnostics.
func (e *Engine) SchedulerState() SchedulerState {
	s := SchedulerState{
		Depth: e.events.len(),
		Peak:  e.events.peak,
	}
	if e.events.len() > 0 {
		s.SpanLo, s.SpanHi = e.events.lad.activeSpan()
	}
	return s
}

// schedulerLines renders the scheduler snapshot for error diagnostics.
func (e *Engine) schedulerLines() []string {
	return []string{e.SchedulerState().String()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (event callbacks or running processes).
// The source is seeded on the first call, with New's seed, so the draws
// are the same as if it had been seeded at New; an engine that never
// draws never pays for its several-kilobyte state.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in the model and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, run: funcRunner(fn), kind: evRun})
}

// AtRun schedules r.Step() at virtual time t. It is At for Runner
// implementations: scheduling a pointer-backed Runner allocates
// nothing, which is why the RMA message path uses it for every stage of
// an operation's lifecycle.
func (e *Engine) AtRun(t Time, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, run: r, kind: evRun})
}

// AfterRun schedules r.Step() d from now.
func (e *Engine) AfterRun(d Duration, r Runner) { e.AtRun(e.now.Add(d), r) }

// ReserveSeq allocates the next event sequence number without
// scheduling anything. Callers that keep their own FIFO of future
// events (completion times monotone within the FIFO) reserve each
// event's seq up front and schedule only the head via AtRunReserved;
// the executed timeline is then identical to scheduling everything
// eagerly, while the scheduler holds one resident event per FIFO.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// Passed reports whether the event key (at, seq) sorts at or before the
// event being executed: whether an event scheduled under it would have
// run by now. Once Run has returned every key handed to Elide has passed.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return !(evKey{at: e.now, seq: e.cur}).before(evKey{at: at, seq: seq})
}

// Elide notes that the event a caller reserved (at, seq) for (ReserveSeq)
// may never be scheduled: the caller folds what it would do into a later
// event, or into none when nothing waits for it. A caller that schedules
// it after all does so under the same key (AtRunReserved). The run still
// ends where the eager schedule's would, with the clock at the latest
// elided key if no event ran later (see Run).
func (e *Engine) Elide(at Time, seq uint64) {
	k := evKey{at: at, seq: seq}
	if e.lastElided.before(k) {
		e.lastElided = k
	}
	if e.events.shadow != nil {
		e.events.shadow.elided(k)
	}
}

// AtRunReserved schedules r.Step() at t under a previously reserved
// sequence number (see ReserveSeq).
func (e *Engine) AtRunReserved(t Time, seq uint64, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.events.push(event{at: t, seq: seq, run: r, kind: evRun})
}

// FastPathsDisabled reports whether DisableFastPaths was called, so
// callers that keep their own reserved-seq FIFOs (see ReserveSeq) can
// schedule eagerly instead, as the engine's reference.
func (e *Engine) FastPathsDisabled() bool { return e.fastOff }

// atResume schedules a closure-free resume of p at t (the Advance and
// wake hot path).
func (e *Engine) atResume(t Time, p *Proc) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, p: p, kind: evResume})
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// AtBG schedules a background event at t: it runs like a normal event
// while any process is alive, but is silently discarded once all
// processes have terminated, so it can never extend a run.
func (e *Engine) AtBG(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, run: funcRunner(fn), kind: evRun, bg: true})
}

// AfterBG is AtBG relative to now.
func (e *Engine) AfterBG(d Duration, fn func()) { e.AtBG(e.now.Add(d), fn) }

// AtBGRun is AtBG for a Runner: background housekeeping whose state is an
// object (a packet, a heartbeat) schedules the object, not a closure.
func (e *Engine) AtBGRun(t Time, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, run: r, kind: evRun, bg: true})
}

// AfterBGRun is AtBGRun relative to now.
func (e *Engine) AfterBGRun(d Duration, r Runner) { e.AtBGRun(e.now.Add(d), r) }

// AtBGRunReserved is AtRunReserved for a background event: the head of a
// caller-kept FIFO of housekeeping deadlines (see ReserveSeq). Like every
// background event it is discarded once no process is alive, and with it
// whatever still waits behind it in the caller's FIFO.
func (e *Engine) AtBGRunReserved(t Time, seq uint64, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.events.push(event{at: t, seq: seq, run: r, kind: evRun, bg: true})
}

// SetWatchdog arms limits on total events executed and on virtual time
// reached; Run fails with a *WatchdogError when either is exceeded.
// Zero disables the corresponding limit. This turns a runaway loop
// (e.g. an endless retransmission cycle) into a fast, diagnosable
// failure instead of a spin.
func (e *Engine) SetWatchdog(maxEvents int64, maxTime Time) {
	e.maxEvents = maxEvents
	e.maxTime = maxTime
}

// SetStallWatchdog arms a livelock detector: Run fails with a
// *WatchdogError when events consecutive events execute without the
// virtual clock advancing. Unlike the total-event limit this scales
// with the workload — any amount of forward progress resets it. Zero
// disables.
func (e *Engine) SetStallWatchdog(events int64) { e.stallEvents = events }

// A Diagnoser contributes context lines (e.g. a wait-for graph) to
// DeadlockError and WatchdogError. Diagnose runs only when such an error
// is being built.
type Diagnoser interface {
	Diagnose() []string
}

// SetDiagnoser registers the engine's Diagnoser, replacing any earlier
// one. An engine keeps it in an interface field, so a pointer costs the
// engine no allocation.
func (e *Engine) SetDiagnoser(d Diagnoser) { e.diag = d }

func (e *Engine) collectDiagnostics() []string {
	if e.diag == nil {
		return nil
	}
	return e.diag.Diagnose()
}

// EventsExecuted returns the number of events Run has executed so far.
func (e *Engine) EventsExecuted() int64 { return e.executed }

// Switches returns the number of coroutine switches into a process the
// event loop has made so far: one per resume that the process itself
// handles, none for the steps and waits the loop serves in its stead
// (Proc.Serve, Completion.Serve).
func (e *Engine) Switches() int64 { return e.switches }

// DisableFastPaths switches the engine to the eager schedule: nothing is
// served in a process's stead (Proc.Serve and the served waits panic, so
// their callers park instead), a Server schedules every completion as its
// own event instead of one resident event per backlog, and callers that
// keep reserved-seq FIFOs of their own do the same (FastPathsDisabled).
// Runs are bit-identical either way — the knob is the differential
// reference tests hold those paths to.
func (e *Engine) DisableFastPaths() { e.fastOff = true }

// Kill terminates a process from engine context without resuming it:
// the process is removed from the live count and every future attempt
// to wake or resume it becomes a no-op. Its coroutine stays parked, stack
// and state intact — the simulation analogue of a process that died
// mid-call — until Close releases it. Killing a finished process is a
// no-op.
func (e *Engine) Kill(p *Proc) {
	if p.state == stateDone || p.killed {
		return
	}
	p.killed = true
	e.live--
}

// Close releases every process that has not finished — killed, frozen,
// deadlocked or never started — so its goroutine exits and its stack,
// with everything the stack references, can be collected. A parked
// process unwinds through its deferred calls, which are user code running
// after the run is over: none of them gets past its first park (see
// Proc.park), and every Advance parks, so the clock and the event count
// stay where Run left them. Whatever else such
// a call touches before it parks is the caller's to have read already.
// Close returns the first panic a deferred call raised, as an error. Call
// it once the run is over and its results are read; the engine must not
// be used afterwards.
func (e *Engine) Close() error {
	var err error
	for i := 0; i < len(e.procs); i++ { // by index: a deferred call may Spawn
		p := e.procs[i]
		e.panicked = false
		p.stop()
		if e.panicked && err == nil {
			err = fmt.Errorf("sim: %s panicked while Close was releasing it: %v", p.name, e.panicVal)
		}
	}
	return err
}

// Freeze suspends a process from engine context without terminating it:
// resume and start events addressed to it are swallowed until Thaw,
// which replays at most one of them. Unlike Kill the process stays in
// the live count — a frozen process is expected back, so the simulation
// must not end (or discard background events) while it sleeps. Freezing
// a finished or killed process is a no-op; it reports whether the
// freeze took effect.
func (e *Engine) Freeze(p *Proc) bool {
	if p.state == stateDone || p.killed || p.frozen {
		return false
	}
	p.frozen = true
	return true
}

// Thaw lifts a Freeze. If any wakeup was swallowed while frozen, a
// single resume (or start) is scheduled now: the waiting primitives all
// re-check their predicates after waking, so coalescing any number of
// deferred wakeups into one is indistinguishable from delivering them
// all. Thawing a process that was never frozen is a no-op.
func (e *Engine) Thaw(p *Proc) {
	if !p.frozen {
		return
	}
	p.frozen = false
	if !p.deferredWake {
		return
	}
	p.deferredWake = false
	e.seq++
	kind := evResume
	if p.state == stateNew {
		kind = evStart
	}
	e.events.push(event{at: e.now, seq: e.seq, p: p, kind: kind})
}

// Spawn creates a new process named name running fn and schedules it to
// start at the current virtual time. The returned Proc may be used as a
// wake target before it has started.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	p := &Proc{
		eng:   e,
		id:    len(e.procs),
		name:  name,
		state: stateNew,
	}
	e.procs = append(e.procs, p)
	e.live++
	// The body starts lazily, at the first next() (the evStart transfer).
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			r := recover()
			if _, stopped := r.(procStopped); stopped {
				return // released by Close: the engine's bookkeeping is over
			}
			if r != nil {
				e.panicVal = r
				e.panicked = true
			}
			p.state = stateDone
			e.live--
		}()
		p.yield = yield
		fn(p)
		p.Settle() // a process ends when its served calls do
	})
	e.seq++
	e.events.push(event{at: t, seq: e.seq, p: p, kind: evStart})
	return p
}

// transfer switches into p and returns when p parks or terminates. It
// must only be called from the event loop. A panic inside the process
// is re-raised here, in the event loop's goroutine, so it propagates
// out of Run to the harness or test.
func (e *Engine) transfer(p *Proc) {
	if p.killed {
		return
	}
	e.switches++
	p.next()
	if e.panicked {
		panic(e.panicVal)
	}
}

// DeadlockError reports that Run exhausted all events while processes were
// still parked: the simulated system can make no further progress.
type DeadlockError struct {
	Time        Time
	Stuck       []string // "name: reason" for each parked process
	Diagnostics []string // extra context from the engine's Diagnoser
}

func (d *DeadlockError) Error() string {
	msg := fmt.Sprintf("sim: deadlock at %v; %d stuck: %s",
		d.Time, len(d.Stuck), strings.Join(d.Stuck, "; "))
	if len(d.Diagnostics) > 0 {
		msg += "\n" + strings.Join(d.Diagnostics, "\n")
	}
	return msg
}

// WatchdogError reports that Run exceeded a SetWatchdog limit — the
// simulation was still generating events but not converging (e.g. an
// endless retransmission loop). It carries the same stuck-process
// diagnostics as a deadlock, plus the event count.
type WatchdogError struct {
	Time        Time
	Events      int64
	Limit       string   // which limit tripped, human-readable
	Stuck       []string // "name: reason" for each parked process
	Diagnostics []string // extra context from the engine's Diagnoser
}

func (w *WatchdogError) Error() string {
	msg := fmt.Sprintf("sim: watchdog tripped (%s) at %v after %d events; %d stuck: %s",
		w.Limit, w.Time, w.Events, len(w.Stuck), strings.Join(w.Stuck, "; "))
	if len(w.Diagnostics) > 0 {
		msg += "\n" + strings.Join(w.Diagnostics, "\n")
	}
	return msg
}

// stuckProcs lists parked and never-started processes (excluding killed
// ones, which are dead rather than stuck).
func (e *Engine) stuckProcs() []string {
	var out []string
	for _, p := range e.procs {
		if p.killed {
			continue
		}
		if p.state == stateParked || p.state == stateNew {
			reason := p.parkReason
			if p.waitFor != "" {
				reason = p.waitFor // a served wait, reported as the wait it stands for
			}
			out = append(out, p.name+": "+reason)
		}
	}
	sort.Strings(out)
	return out
}

// execOne commits the clock/bookkeeping mutation for ev and runs it if
// it is an engine-context event (a Runner). For resume/start events
// it only does the bookkeeping and returns the process to transfer to;
// a nil return means the event is fully handled.
func (e *Engine) execOne(ev event) *Proc {
	if ev.at != e.now || e.executed == 0 {
		if ev.at < e.now {
			// The scheduler handed back an event out of (at, seq) order.
			panic(fmt.Sprintf("sim: event (%v, seq %d) is before the clock %v", ev.at, ev.seq, e.now))
		}
		e.lastAdvance = ev.at
		e.lastAdvanceExec = e.executed
	}
	e.now, e.cur = ev.at, ev.seq
	e.executed++
	switch ev.kind {
	case evRun:
		ev.run.Step()
	case evResume:
		if p := ev.p; !p.killed {
			if p.frozen {
				p.deferredWake = true
				return nil
			}
			if p.state != stateParked {
				panic(fmt.Sprintf("sim: waking %s which is not parked", p.name))
			}
			if c := p.cont; c != nil {
				p.waitFor = ""
				if c.Continue() {
					return nil // the continuation serves what comes next
				}
				p.cont = nil
			}
			return p
		}
	case evStart:
		if p := ev.p; p.state == stateNew && !p.killed {
			if p.frozen {
				p.deferredWake = true
				return nil
			}
			p.state = stateRunning
			return p
		}
	}
	return nil
}

// Run executes events until none remain, and leaves the clock at the last
// event executed or elided (Elide), whichever is later. It returns a
// *DeadlockError if processes remain parked with no pending events, a
// *WatchdogError if a SetWatchdog limit is exceeded, and nil otherwise.
func (e *Engine) Run() error {
	var ev event
	for e.events.len() > 0 {
		e.events.popInto(&ev)
		if ev.bg && e.live <= 0 {
			// Background housekeeping after the last process finished:
			// discard without running or advancing the clock, so the
			// end time is exactly what the processes produced.
			continue
		}
		if p := e.execOne(ev); p != nil {
			e.transfer(p)
		}
		if e.maxEvents > 0 && e.executed >= e.maxEvents {
			return &WatchdogError{Time: e.now, Events: e.executed,
				Limit: fmt.Sprintf("event limit %d", e.maxEvents), Stuck: e.stuckProcs(),
				Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
		}
		if e.maxTime > 0 && e.now > e.maxTime {
			return &WatchdogError{Time: e.now, Events: e.executed,
				Limit: fmt.Sprintf("virtual-time limit %v", e.maxTime), Stuck: e.stuckProcs(),
				Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
		}
		if e.stallEvents > 0 && e.executed-e.lastAdvanceExec >= e.stallEvents {
			return &WatchdogError{Time: e.now, Events: e.executed,
				Limit: fmt.Sprintf("stalled: %d events with no time advance since %v",
					e.stallEvents, e.lastAdvance),
				Stuck: e.stuckProcs(), Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
		}
	}
	if (evKey{at: e.now, seq: e.cur}).before(e.lastElided) {
		// The eager schedule would have popped the latest elided event.
		e.now, e.cur = e.lastElided.at, e.lastElided.seq
	}
	if e.live > 0 {
		d := &DeadlockError{Time: e.now, Stuck: e.stuckProcs(),
			Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
		return d
	}
	return nil
}

// MustRun is Run but panics on deadlock; used by tests and benchmarks
// where a deadlock is a bug in the model.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// peekTime returns the time of the next pending event without popping
// it; ok is false when nothing is pending. This is the per-shard
// horizon the window coordinator reads between windows.
func (e *Engine) peekTime() (Time, bool) {
	if e.events.len() == 0 {
		return 0, false
	}
	return e.events.minTime(), true
}

// nextDesc describes the next pending event for watchdog reports.
func (e *Engine) nextDesc() string {
	if e.events.len() == 0 {
		return "idle (no pending events)"
	}
	v := e.events.minEvent()
	switch v.kind {
	case evResume:
		return fmt.Sprintf("next event at %v (resume %s)", v.at, v.p.name)
	case evStart:
		return fmt.Sprintf("next event at %v (start %s)", v.at, v.p.name)
	}
	return fmt.Sprintf("next event at %v", v.at)
}

// injectEvent pushes a cross-shard event straight onto the scheduler
// queue under a sequence number reserved on the sending shard's engine. Only the
// window coordinator calls it, between windows, when every shard is
// quiescent.
func (e *Engine) injectEvent(at Time, seq uint64, r Runner) {
	e.events.push(event{at: at, seq: seq, run: r, kind: evRun})
}

// runWindow executes events strictly before e.limit, exactly as Run
// would, and returns when the next event is at or past the limit (or
// nothing is pending). Deadlock and event-budget detection move to the
// group coordinator, which sees all shards; per-engine stall and
// virtual-time watchdogs are still honored here and reported through
// e.wdErr.
func (e *Engine) runWindow() {
	var ev event
	for {
		if e.winCap > 0 && e.executed >= e.winCap {
			// Group event budget nearly spent: return to the barrier so
			// the coordinator can trip the watchdog with a full report
			// instead of letting one shard spin inside a wide window.
			return
		}
		t, ok := e.peekTime()
		if !ok || t >= e.limit {
			return
		}
		e.events.popInto(&ev)
		if ev.bg && (e.live <= 0 || e.bgDiscard) {
			continue
		}
		if p := e.execOne(ev); p != nil {
			e.transfer(p)
		}
		if e.maxTime > 0 && e.now > e.maxTime {
			e.wdErr = &WatchdogError{Time: e.now, Events: e.executed,
				Limit: fmt.Sprintf("virtual-time limit %v", e.maxTime), Stuck: e.stuckProcs(),
				Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
			return
		}
		if e.stallEvents > 0 && e.executed-e.lastAdvanceExec >= e.stallEvents {
			e.wdErr = &WatchdogError{Time: e.now, Events: e.executed,
				Limit: fmt.Sprintf("stalled: %d events with no time advance since %v",
					e.stallEvents, e.lastAdvance),
				Stuck: e.stuckProcs(), Diagnostics: append(e.schedulerLines(), e.collectDiagnostics()...)}
			return
		}
	}
}

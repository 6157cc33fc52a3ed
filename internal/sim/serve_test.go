package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A served step's contract is equivalence: a process whose steps and
// waits the event loop serves (Proc.Serve, Completion.Serve,
// CompletionSet.Serve) must leave the engine exactly where the process
// parked in Advance, Await and Wait leaves it, event for event. These
// tests run one script both ways and compare everything the engine
// exposes.

// execRec is one popped event.
type execRec struct {
	at   Time
	seq  uint64
	kind eventKind
}

// runOutcome is everything a run exposes: the popped events in order,
// what the script itself observed, and the engine's final counters. The
// number of switches into a process is recorded too, but diffOutcome
// ignores it: cutting switches is what serving is for.
type runOutcome struct {
	trace    []execRec
	log      []string
	now      Time
	seq      uint64
	executed int64
	live     int
	switches int
}

// recordRun is Engine.Run without the watchdog checks, recording every
// event it pops and counting the switches into a process.
func recordRun(e *Engine) (trace []execRec, switches int) {
	var ev event
	for e.events.len() > 0 {
		e.events.popInto(&ev)
		if ev.bg && e.live <= 0 {
			continue
		}
		trace = append(trace, execRec{ev.at, ev.seq, ev.kind})
		if p := e.execOne(ev); p != nil {
			switches++
			e.transfer(p)
		}
	}
	return trace, switches
}

// script builds a scenario on a fresh engine. logf records an observation
// stamped with the engine's clock, seq and event count.
type script func(e *Engine, logf func(format string, args ...interface{}))

func runScript(sc script) runOutcome {
	e := New(1)
	var out runOutcome
	logf := func(format string, args ...interface{}) {
		out.log = append(out.log, fmt.Sprintf("t=%d seq=%d n=%d ", e.now, e.seq, e.executed)+
			fmt.Sprintf(format, args...))
	}
	sc(e, logf)
	out.trace, out.switches = recordRun(e)
	out.now, out.seq, out.executed, out.live = e.now, e.seq, e.executed, e.live
	return out
}

func diffOutcome(t *testing.T, what string, got, want runOutcome) {
	t.Helper()
	got.switches, want.switches = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n served %+v\n plain  %+v", what, got, want)
	}
}

// servedRounds is the continuation of TestServeMatchesAdvance: rounds of
// a step of d, each ending in act — what a process running
//
//	for i := 0; i < n; i++ { p.Advance(d); act() }
//
// does at the same pops, done by the event loop in its stead.
type servedRounds struct {
	p    *Proc
	d    Duration
	left int
	act  func()
}

func (s *servedRounds) Continue() bool {
	s.act()
	s.left--
	return s.left > 0 && s.p.Serve(s, s.d)
}

// TestServeMatchesAdvance pins Serve's contract: a continuation that does
// at each step's end what the process would have done leaves the engine
// exactly where the process leaves it — every popped (at, seq, kind),
// every observation, the clock, the seq counter and the event count —
// while the process is switched in once, when it settles, instead of once
// per step. A bystander schedules events at the steps' times, on both
// sides of their seqs.
func TestServeMatchesAdvance(t *testing.T) {
	sc := func(served bool) script {
		return func(e *Engine, logf func(string, ...interface{})) {
			act := func() {
				logf("round")
				at := e.now + 3
				e.At(at, func() { logf("tick@%d", at) })
			}
			e.Spawn("a", func(p *Proc) {
				logf("a starts")
				if served {
					p.Serve(&servedRounds{p: p, d: 15, left: 3, act: act}, 15)
					p.Settle()
				} else {
					for i := 0; i < 3; i++ {
						p.Advance(15)
						act()
					}
				}
				logf("a done")
			})
			e.Spawn("b", func(p *Proc) {
				for _, d := range []Duration{15, 3, 12, 3, 7} {
					p.Advance(d)
					logf("b")
				}
			})
		}
	}
	served, plain := runScript(sc(true)), runScript(sc(false))
	diffOutcome(t, "served vs Advance", served, plain)
	if served.switches != plain.switches-2 {
		t.Errorf("served run switched %d times, the Advance run %d: want 2 fewer (one switch at the settle instead of one per step)",
			served.switches, plain.switches)
	}
}

func TestServeNegativePanics(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) { p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, -1) })
	if r := runPanics(func() { e.Run() }); r == nil {
		t.Fatal("negative step did not panic")
	}
}

// TestServeUnderWatchdog arms each watchdog so that it trips while the
// process is parked in one step, served or its own Advance: the trip point
// must be the same.
func TestServeUnderWatchdog(t *testing.T) {
	arms := map[string]func(e *Engine){
		"event limit":        func(e *Engine) { e.SetWatchdog(4, 0) },
		"virtual-time limit": func(e *Engine) { e.SetWatchdog(0, 25) },
		"not tripping":       func(e *Engine) { e.SetWatchdog(1000, 1000); e.SetStallWatchdog(1000) },
	}
	run := func(served bool, arm func(e *Engine)) (*WatchdogError, runOutcome) {
		e := New(1)
		arm(e)
		for _, at := range []Time{10, 20, 30, 40} {
			e.At(at, func() {})
		}
		e.Spawn("a", func(p *Proc) {
			if served {
				p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, 60)
				return // the exit settles
			}
			p.Advance(60)
		})
		wd, _ := e.Run().(*WatchdogError)
		return wd, runOutcome{now: e.now, seq: e.seq, executed: e.executed, live: e.live}
	}
	for name, arm := range arms {
		gotWD, got := run(true, arm)
		wantWD, want := run(false, arm)
		diffOutcome(t, name, got, want)
		if (name == "not tripping") != (gotWD == nil) || (gotWD == nil) != (wantWD == nil) {
			t.Fatalf("%s: served run reported %v, plain %v", name, gotWD, wantWD)
		}
		if gotWD != nil && (gotWD.Limit != wantWD.Limit || len(gotWD.Stuck) != 1 ||
			len(wantWD.Stuck) != 1 || wantWD.Stuck[0] != "a: advancing") {
			t.Errorf("%s: served run reported %v, plain %v", name, gotWD, wantWD)
		}
	}
}

// TestCloseReleasesProcessParkedInAdvance: a process deadlocked in an
// Advance it never finishes (its engine stopped at a window limit) unwinds
// through Close like any parked process.
func TestCloseReleasesProcessParkedInAdvance(t *testing.T) {
	e := New(1)
	unwound := false
	e.At(10, func() {})
	e.Spawn("a", func(p *Proc) {
		defer func() { unwound = true }()
		p.Advance(30)
	})
	e.limit = 15
	e.runWindow()
	if e.now != 10 {
		t.Fatalf("now = %d, want 10 (inside the advance)", e.now)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("Close did not unwind the process parked in Advance")
	}
}

// TestParkWhileServedPanics is the settle rule's safety net: a process
// that is served has not reached the time it runs at, so any park but
// Settle's panics; after Settle the process parks as usual.
func TestParkWhileServedPanics(t *testing.T) {
	for _, settle := range []bool{false, true} {
		e := New(1)
		e.Spawn("a", func(p *Proc) {
			p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, 15)
			if settle {
				p.Settle()
			}
			p.Advance(1)
		})
		r := runPanics(func() { e.Run() })
		if msg, _ := r.(string); settle != (r == nil) || !settle && !strings.Contains(msg, "while it is served") {
			t.Fatalf("settle=%v: Advance while served panicked with %v", settle, r)
		}
		if settle && e.now != 16 {
			t.Fatalf("process finished at %d, want 16 (the served step, then its own advance)", e.now)
		}
	}
}

// TestProcessExitSettles: a process that returns while it is still served
// ends when the served steps do, not when its code ran out.
func TestProcessExitSettles(t *testing.T) {
	e := New(1)
	rounds := 0
	p := e.Spawn("a", func(p *Proc) {
		p.Serve(&servedRounds{p: p, d: 15, left: 2, act: func() { rounds++ }}, 15)
	})
	var doneEarly bool // done between the rounds, at 20
	e.At(20, func() { doneEarly = p.Done() })
	e.MustRun()
	if rounds != 2 || e.now != 30 || !p.Done() || doneEarly {
		t.Fatalf("rounds %d, clock %d, done %v (at 20: %v); want 2 rounds, the process done at 30", rounds, e.now, p.Done(), doneEarly)
	}
}

// TestServeNeedsFastPaths: with the fast paths off every step is the
// process's own Advance, so there is nothing for the event loop to serve.
func TestServeNeedsFastPaths(t *testing.T) {
	e := New(1)
	e.DisableFastPaths()
	e.Spawn("a", func(p *Proc) { p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, 10) })
	if r := runPanics(func() { e.Run() }); r == nil {
		t.Fatal("Serve with the fast paths off did not panic")
	}
}

// servedWaits is a continuation that, at the end of a served step,
// awaits c and then s, and acts once both are done: what
//
//	p.Advance(10); c.Await(p, ...); s.Wait(p, ...); act()
//
// does at the same pops, done by the event loop in its stead.
type servedWaits struct {
	p       *Proc
	c       *Completion
	s       *CompletionSet
	awaited bool
	act     func()
}

func (w *servedWaits) Continue() bool {
	if !w.awaited {
		w.awaited = true
		if w.c.Serve(w.p, w, "awaiting c") {
			return true
		}
	}
	if w.s.Serve(w.p, w, "awaiting s") {
		return true
	}
	w.act()
	return false
}

// TestServedWaitMatchesAwait pins the served waits' contract: a rank that
// the event loop serves is registered on a Completion or CompletionSet
// without parking again, and the wake-up — the same resume event, under
// the same seq — runs its continuation, which leaves the engine exactly
// where the process parked in Await and Wait leaves it. The set is
// emptied, refilled and emptied again before the wake-up pops, so the
// continuation must re-check, as Wait's loop does.
func TestServedWaitMatchesAwait(t *testing.T) {
	sc := func(served bool) script {
		return func(e *Engine, logf func(string, ...interface{})) {
			var c Completion
			var s CompletionSet
			s.Add(1)
			e.At(25, func() { logf("complete c"); c.Complete() })
			e.At(30, func() { logf("s done, s refilled"); s.Done(); s.Add(1) })
			e.At(40, func() { logf("s done"); s.Done() })
			act := func() { logf("acted") }
			e.Spawn("a", func(p *Proc) {
				if served {
					p.Serve(&servedWaits{p: p, c: &c, s: &s, act: act}, 10)
					p.Settle()
				} else {
					p.Advance(10)
					c.Await(p, "awaiting c")
					s.Wait(p, "awaiting s")
					act()
				}
				logf("a done")
			})
			e.Spawn("b", func(p *Proc) {
				for _, d := range []Duration{15, 10, 5, 10} {
					p.Advance(d)
					logf("b")
				}
			})
		}
	}
	served, plain := runScript(sc(true)), runScript(sc(false))
	diffOutcome(t, "served waits vs Await/Wait", served, plain)
	if served.switches >= plain.switches {
		t.Errorf("served run switched %d times, the parked run %d: want fewer", served.switches, plain.switches)
	}
}

// TestServedWaitNamedInDeadlockReport: a served wait that can never end
// leaves its process parked in Settle, and the deadlock report names the
// wait, not the settle.
func TestServedWaitNamedInDeadlockReport(t *testing.T) {
	e := New(1)
	var c Completion
	var s CompletionSet
	s.Add(1)
	e.Spawn("a", func(p *Proc) {
		p.Serve(&servedWaits{p: p, c: &c, s: &s, act: func() {}}, 10)
	})
	e.At(5, c.Complete)
	err := e.Run()
	if de, ok := err.(*DeadlockError); !ok || !strings.Contains(de.Error(), "a: awaiting s") {
		t.Fatalf("Run returned %v, want a deadlock naming the served wait", err)
	}
}

// servedSignal is a continuation that, at the end of a served step, waits
// on s twice, noting each wake-up: what
//
//	p.Advance(10); s.Wait(p, ...); woke(); s.Wait(p, ...); woke()
//
// does at the same pops, done by the event loop in its stead.
type servedSignal struct {
	p     *Proc
	s     *Signal
	waits int
	woke  func()
}

func (w *servedSignal) Continue() bool {
	if w.waits > 0 {
		w.woke()
	}
	if w.waits == 2 {
		return false
	}
	w.waits++
	w.s.Serve(w.p, w, "awaiting s")
	return true
}

// TestSignalServeMatchesWait pins Signal.Serve's contract: a served waiter
// and a parked waiter on one Signal are woken by a Broadcast in arrival
// order, under the same resume events (at, seq) that Wait gives both, and
// a served waiter that re-registers from its continuation waits for the
// next Broadcast, as a process waiting again after its wake-up does.
func TestSignalServeMatchesWait(t *testing.T) {
	sc := func(served bool) script {
		return func(e *Engine, logf func(string, ...interface{})) {
			var s Signal
			for _, at := range []Time{20, 30} {
				e.At(at, func() { logf("broadcast"); s.Broadcast() })
			}
			woke := func() { logf("a woke") }
			e.Spawn("a", func(p *Proc) {
				if served {
					p.Serve(&servedSignal{p: p, s: &s, woke: woke}, 10)
					p.Settle()
				} else {
					p.Advance(10)
					for i := 0; i < 2; i++ {
						s.Wait(p, "awaiting s")
						woke()
					}
				}
				logf("a done")
			})
			e.Spawn("b", func(p *Proc) {
				p.Advance(12)
				for i := 0; i < 2; i++ {
					s.Wait(p, "awaiting s")
					logf("b woke")
				}
			})
		}
	}
	served, plain := runScript(sc(true)), runScript(sc(false))
	diffOutcome(t, "served wait vs Signal.Wait", served, plain)
	var order []string
	for _, l := range served.log {
		order = append(order, l[strings.LastIndex(l, " ")+1:])
	}
	if want := []string{"broadcast", "woke", "woke", "broadcast", "woke", "done", "woke"}; !reflect.DeepEqual(order, want) {
		t.Errorf("served run logged %q, want %q: one wake-up per waiter per Broadcast, a first", order, want)
	}
	if served.switches >= plain.switches {
		t.Errorf("served run switched %d times, the parked run %d: want fewer", served.switches, plain.switches)
	}
}

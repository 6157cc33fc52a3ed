package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The advance chain's contract is equivalence: AdvanceChain(ds...) must
// leave the engine exactly where `for d in ds { Advance(d) }` leaves it,
// event for event. These tests run one script both ways and compare
// everything the engine exposes.

// advanceFn is how a script consumes back-to-back durations: as one
// chain, or as the plain Advance loop that is the chain's reference.
type advanceFn func(p *Proc, ds ...Duration)

func asChain(p *Proc, ds ...Duration) { p.AdvanceChain(ds...) }

func asPlain(p *Proc, ds ...Duration) {
	for _, d := range ds {
		p.Advance(d)
	}
}

// execRec is one popped event.
type execRec struct {
	at   Time
	seq  uint64
	kind eventKind
}

// chainOutcome is everything a run exposes: the popped events in order,
// what the script itself observed, and the engine's final counters. The
// number of switches into a process is recorded too, but diffOutcome
// ignores it: cutting switches is what a chain is for.
type chainOutcome struct {
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

// chainScript builds a scenario on a fresh engine. logf records an
// observation stamped with the engine's clock, seq and event count.
type chainScript func(e *Engine, adv advanceFn, logf func(format string, args ...interface{}))

func runChainScript(script chainScript, adv advanceFn, fastOff bool) chainOutcome {
	e := New(1)
	if fastOff {
		e.DisableFastPaths()
	}
	var out chainOutcome
	logf := func(format string, args ...interface{}) {
		out.log = append(out.log, fmt.Sprintf("t=%d seq=%d n=%d ", e.now, e.seq, e.executed)+
			fmt.Sprintf(format, args...))
	}
	script(e, adv, logf)
	out.trace, out.switches = recordRun(e)
	out.now, out.seq, out.executed, out.live = e.now, e.seq, e.executed, e.live
	return out
}

func diffOutcome(t *testing.T, what string, got, want chainOutcome) {
	t.Helper()
	got.switches, want.switches = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n chain %+v\n plain %+v", what, got, want)
	}
}

func TestAdvanceChainMatchesPlainAdvances(t *testing.T) {
	scripts := map[string]chainScript{
		// Other events at exactly a step's time, on both sides of its seq:
		// `early` events are scheduled before the step's resume gets its
		// seq, `late` ones after, by a process that wakes between steps.
		"neighbours": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			for _, at := range []Time{10, 20, 30} {
				at := at
				e.At(at, func() { logf("early@%d", at) })
			}
			e.Spawn("a", func(p *Proc) {
				adv(p, 10, 10, 10)
				logf("a done")
			})
			e.Spawn("b", func(p *Proc) {
				p.Advance(15) // between a's steps 2 and 3
				e.At(20, func() {
					logf("late@20")
					e.At(30, func() { logf("late@30") })
				})
				p.Advance(5) // lands on a's step time too
				logf("b done")
			})
		},
		"zero-length step": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			e.At(7, func() { logf("tick") })
			e.Spawn("a", func(p *Proc) {
				adv(p, 10, 0, 5, 0)
				logf("a done")
				adv(p, 0, 0)
				logf("a still here")
			})
		},
		// Nothing else scheduled: every step's resume is the next pop.
		"alone on an empty queue": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			e.Spawn("a", func(p *Proc) {
				adv(p, 5, 5, 5)
				logf("a done")
			})
		},
		// The first step waits behind a pending event; by its resume the
		// queue is empty again.
		"behind a pending event": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			e.At(3, func() { logf("tick") })
			e.Spawn("a", func(p *Proc) {
				adv(p, 5, 5, 5)
				logf("a done")
				adv(p, 2)
				logf("a done again")
			})
		},
		"kill mid-chain": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			a := e.Spawn("a", func(p *Proc) {
				adv(p, 10, 10, 10)
				logf("a done (must not happen)")
			})
			e.At(15, func() { e.Kill(a); logf("killed") })
			e.At(40, func() { logf("after") })
		},
		// The step-2 resume is swallowed while frozen; the thaw's replay
		// continues the chain from the thaw time.
		"freeze and thaw mid-chain": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			a := e.Spawn("a", func(p *Proc) {
				adv(p, 10, 10, 10)
				logf("a done")
			})
			e.At(15, func() { e.Freeze(a); logf("frozen") })
			e.At(42, func() { e.Thaw(a); logf("thawed") })
			e.At(60, func() { logf("after") })
		},
		"two chains interleaved": func(e *Engine, adv advanceFn, logf func(string, ...interface{})) {
			for i := 0; i < 2; i++ {
				i := i
				e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					for k := 0; k < 3; k++ {
						adv(p, Duration(3+i), Duration(4-i), 2)
						logf("p%d round %d", i, k)
					}
				})
			}
		},
	}
	for name, script := range scripts {
		for _, fastOff := range []bool{false, true} {
			got := runChainScript(script, asChain, fastOff)
			want := runChainScript(script, asPlain, fastOff)
			diffOutcome(t, fmt.Sprintf("%s (fastOff=%v)", name, fastOff), got, want)
			if len(want.log) == 0 {
				t.Errorf("%s: script observed nothing", name)
			}
		}
		// Across the fast-path switch only the switch count may differ:
		// every step is a popped resume event either way.
		on, off := runChainScript(script, asChain, false), runChainScript(script, asChain, true)
		diffOutcome(t, name+" (fast paths on vs off)", on, off)
	}
}

// TestAdvanceChainSwitchesOnce pins what a chain is for: every step is a
// popped resume event, as in the plain loop, but the engine switches into
// the process once per chain instead of once per step.
func TestAdvanceChainSwitchesOnce(t *testing.T) {
	script := func(e *Engine, adv advanceFn, _ func(string, ...interface{})) {
		e.At(3, func() {})
		e.Spawn("a", func(p *Proc) {
			adv(p, 5, 5, 5)
			adv(p, 2)
		})
	}
	for _, c := range []struct {
		name     string
		adv      advanceFn
		fastOff  bool
		switches int
	}{
		{"chain", asChain, false, 3}, // the start, then one per chain
		{"plain", asPlain, false, 5}, // the start, then one per step
		{"chain, fast paths off", asChain, true, 5},
	} {
		out := runChainScript(script, c.adv, c.fastOff)
		if len(out.trace) != 6 || out.executed != 6 || out.now != 17 {
			t.Errorf("%s: popped %d, executed %d, now %d; want 6 (the tick, the start, 4 resumes), 6, 17",
				c.name, len(out.trace), out.executed, out.now)
		}
		if out.switches != c.switches {
			t.Errorf("%s: %d switches into the process, want %d", c.name, out.switches, c.switches)
		}
	}
}

func TestAdvanceChainNegativePanics(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) { p.AdvanceChain(5, -1) })
	if r := runPanics(func() { e.Run() }); r == nil {
		t.Fatal("negative step did not panic")
	}
}

// windowState is what a shard coordinator sees of an engine between
// windows.
type windowState struct {
	now      Time
	seq      uint64
	executed int64
	next     Time
	pending  bool
	log      string
}

// TestAdvanceChainAcrossWindowLimit drives runWindow by hand over a
// chain whose steps straddle the window limits: no step's resume may
// execute at or past the limit, exactly like a plain Advance.
func TestAdvanceChainAcrossWindowLimit(t *testing.T) {
	run := func(adv advanceFn, withTick bool) []windowState {
		e := New(1)
		var log string
		if withTick {
			e.At(12, func() { log += fmt.Sprintf("tick@%d;", e.now) })
		}
		e.Spawn("a", func(p *Proc) {
			adv(p, 10, 10, 10, 10)
			log += fmt.Sprintf("done@%d;", e.now)
		})
		var states []windowState
		for _, limit := range []Time{5, 25, 30, 31, 100} {
			e.limit = limit
			e.runWindow()
			next, ok := e.peekTime()
			states = append(states, windowState{e.now, e.seq, e.executed, next, ok, log})
		}
		return states
	}
	for _, withTick := range []bool{false, true} {
		got, want := run(asChain, withTick), run(asPlain, withTick)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("withTick=%v:\n chain %+v\n plain %+v", withTick, got, want)
		}
		if last := want[len(want)-1]; last.now != 40 || last.pending {
			t.Errorf("withTick=%v: script did not finish: %+v", withTick, last)
		}
	}
}

// TestAdvanceChainUnderWatchdog arms each watchdog so that it trips in
// the middle of a chain: trip point and report must match the plain run.
func TestAdvanceChainUnderWatchdog(t *testing.T) {
	type arm func(e *Engine)
	arms := map[string]arm{
		"event limit":        func(e *Engine) { e.SetWatchdog(4, 0) },
		"virtual-time limit": func(e *Engine) { e.SetWatchdog(0, 25) },
		"not tripping":       func(e *Engine) { e.SetWatchdog(1000, 1000); e.SetStallWatchdog(1000) },
	}
	run := func(adv advanceFn, a arm) (string, chainOutcome) {
		e := New(1)
		a(e)
		e.Spawn("a", func(p *Proc) { adv(p, 10, 10, 10, 10, 10, 10) })
		msg := "ok"
		if err := e.Run(); err != nil {
			msg = err.Error()
		}
		return msg, chainOutcome{now: e.now, seq: e.seq, executed: e.executed, live: e.live}
	}
	for name, a := range arms {
		gotMsg, got := run(asChain, a)
		wantMsg, want := run(asPlain, a)
		if gotMsg != wantMsg {
			t.Errorf("%s: chain reported %q, plain %q", name, gotMsg, wantMsg)
		}
		diffOutcome(t, name, got, want)
		if (name == "not tripping") != (gotMsg == "ok") {
			t.Errorf("%s: run reported %q", name, gotMsg)
		}
	}
}

// TestAdvanceRepeat pins AdvanceRepeat(d, n) as AdvanceChain of n d's,
// including the degenerate counts.
func TestAdvanceRepeat(t *testing.T) {
	script := func(repeat bool) chainScript {
		return func(e *Engine, _ advanceFn, logf func(string, ...interface{})) {
			e.At(9, func() { logf("tick") })
			e.Spawn("a", func(p *Proc) {
				for _, n := range []int{0, 1, 4} {
					if repeat {
						p.AdvanceRepeat(7, n)
					} else {
						ds := make([]Duration, n)
						for i := range ds {
							ds[i] = 7
						}
						asPlain(p, ds...)
					}
					logf("n=%d", n)
				}
			})
		}
	}
	for _, fastOff := range []bool{false, true} {
		diffOutcome(t, fmt.Sprintf("fastOff=%v", fastOff),
			runChainScript(script(true), nil, fastOff), runChainScript(script(false), nil, fastOff))
	}
}

// TestCloseReleasesProcessParkedMidChain: a process deadlocked behind a
// chain it never finishes (its engine stopped at a window limit) unwinds
// through Close like any parked process.
func TestCloseReleasesProcessParkedMidChain(t *testing.T) {
	e := New(1)
	unwound := false
	e.At(3, func() {})
	e.Spawn("a", func(p *Proc) {
		defer func() { unwound = true }()
		p.AdvanceChain(10, 10, 10)
	})
	e.limit = 15
	e.runWindow()
	if e.now != 10 {
		t.Fatalf("now = %d, want 10 (mid-chain)", e.now)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("Close did not unwind the process parked mid-chain")
	}
}

// servedRounds is the continuation of TestServeMatchesAdvanceChain: n
// rounds of a [10, 5] chain, each ending in act — what a process running
//
//	for i := 0; i < n; i++ { p.AdvanceChain(10, 5); act() }
//
// does at the same pops, done by the event loop in its stead.
type servedRounds struct {
	p    *Proc
	left int
	act  func()
}

func (s *servedRounds) Continue() bool {
	s.act()
	s.left--
	return s.left > 0 && s.p.Serve(s, 10, 5)
}

// TestServeMatchesAdvanceChain pins Serve's contract: a continuation that
// does at each chain end what the process would have done leaves the
// engine exactly where the process leaves it — every popped (at, seq,
// kind), every observation, the clock, the seq counter and the event count
// — while the process is switched in once, when it settles, instead of
// once per chain. A bystander schedules events at the chains' step times,
// on both sides of their seqs.
func TestServeMatchesAdvanceChain(t *testing.T) {
	script := func(served bool) chainScript {
		return func(e *Engine, _ advanceFn, logf func(string, ...interface{})) {
			act := func() {
				logf("round")
				at := e.now + 3
				e.At(at, func() { logf("tick@%d", at) })
			}
			e.Spawn("a", func(p *Proc) {
				logf("a starts")
				if served {
					p.Serve(&servedRounds{p: p, left: 3, act: act}, 10, 5)
					p.Settle()
				} else {
					for i := 0; i < 3; i++ {
						p.AdvanceChain(10, 5)
						act()
					}
				}
				logf("a done")
			})
			e.Spawn("b", func(p *Proc) {
				for _, d := range []Duration{10, 5, 3, 7} {
					p.Advance(d)
					logf("b")
				}
			})
		}
	}
	served := runChainScript(script(true), nil, false)
	plain := runChainScript(script(false), nil, false)
	diffOutcome(t, "served vs AdvanceChain", served, plain)
	if served.switches != plain.switches-2 {
		t.Errorf("served run switched %d times, the AdvanceChain run %d: want 2 fewer (one switch at the settle instead of one per chain end)",
			served.switches, plain.switches)
	}
}

// TestParkWhileServedPanics is the settle rule's safety net: a process
// whose chain is served has not reached the time it runs at, so any park
// but Settle's panics; after Settle the process parks as usual.
func TestParkWhileServedPanics(t *testing.T) {
	for _, settle := range []bool{false, true} {
		e := New(1)
		e.Spawn("a", func(p *Proc) {
			p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, 10, 5)
			if settle {
				p.Settle()
			}
			p.Advance(1)
		})
		r := runPanics(func() { e.Run() })
		if msg, _ := r.(string); settle != (r == nil) || !settle && !strings.Contains(msg, "while its chain is served") {
			t.Fatalf("settle=%v: Advance with a served chain panicked with %v", settle, r)
		}
		if settle && e.now != 16 {
			t.Fatalf("process finished at %d, want 16 (the served chain, then its own advance)", e.now)
		}
	}
}

// TestProcessExitSettles: a process that returns with its chain still
// served ends when the chain does, not when its code ran out.
func TestProcessExitSettles(t *testing.T) {
	e := New(1)
	rounds := 0
	p := e.Spawn("a", func(p *Proc) {
		p.Serve(&servedRounds{p: p, left: 2, act: func() { rounds++ }}, 10, 5)
	})
	var doneEarly bool // done between the rounds, at 20
	e.At(20, func() { doneEarly = p.Done() })
	e.MustRun()
	if rounds != 2 || e.now != 30 || !p.Done() || doneEarly {
		t.Fatalf("rounds %d, clock %d, done %v (at 20: %v); want 2 rounds, the process done at 30", rounds, e.now, p.Done(), doneEarly)
	}
}

// TestServeNeedsFastPaths: with the fast paths off a chain is the eager
// loop of advances, so there is nothing for the event loop to serve.
func TestServeNeedsFastPaths(t *testing.T) {
	e := New(1)
	e.DisableFastPaths()
	e.Spawn("a", func(p *Proc) { p.Serve(&servedRounds{p: p, left: 1, act: func() {}}, 10) })
	if r := runPanics(func() { e.Run() }); r == nil {
		t.Fatal("Serve with the fast paths off did not panic")
	}
}

// servedWaits is a continuation that, at the end of a served chain,
// awaits c and then s, and acts once both are done: what
//
//	p.AdvanceChain(10); c.Await(p, ...); s.Wait(p, ...); act()
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
	script := func(served bool) chainScript {
		return func(e *Engine, _ advanceFn, logf func(string, ...interface{})) {
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
					p.AdvanceChain(10)
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
	served := runChainScript(script(true), nil, false)
	plain := runChainScript(script(false), nil, false)
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

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Process lifecycle on coroutines: panics, teardown, freeze/thaw, nested
// spawns. Everything here runs under -race in CI.

// runPanics runs fn and returns what it panicked with (nil if it
// returned).
func runPanics(fn func()) (r interface{}) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestProcessPanicSurfacesFromRun: a panic in process context unwinds
// the process's own stack, so it has to be carried across the switch
// and re-raised in the event loop with the value intact.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")

	e := New(1)
	e.Spawn("bystander", func(p *Proc) { p.Advance(10 * Microsecond) })
	e.Spawn("bomb", func(p *Proc) {
		p.Advance(5 * Microsecond)
		panic(boom)
	})
	if r := runPanics(func() { e.Run() }); r != boom {
		t.Fatalf("serial Run panicked with %v, want the process's own value", r)
	}

	// Sharded: the bomb sits on shard 1, which worker 1 runs, so the
	// switch into it — and the re-raise — happen off the coordinator's
	// goroutine.
	defer forceParallel(2)()
	engines := []*Engine{New(1), New(2)}
	g := NewShardGroup(engines, Microseconds(1), 2)
	g.spawnWorkers(1)
	engines[0].Spawn("bystander", func(p *Proc) { p.Advance(10 * Microsecond) })
	engines[1].Spawn("bomb", func(p *Proc) {
		p.Advance(5 * Microsecond)
		panic(boom)
	})
	r := runPanics(func() { g.Run() })
	if want := "sim: shard 1: boom"; fmt.Sprint(r) != want {
		t.Fatalf("sharded Run panicked with %v, want %q", r, want)
	}
}

// TestCloseReleasesUnfinishedProcesses: killed processes — one parked
// mid-call with a deferred call that parks again, one whose deferred call
// spawns, one that never started — keep their goroutines until Close, and
// lose them there without the clock or the event count moving.
func TestCloseReleasesUnfinishedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(1)
	var never Signal
	var unwound, ranPastPark, lateRan bool
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() {
			unwound = true
			// What `defer win.Free()` does: charge a call cost. Nothing
			// else is queued by now, so only Close keeps this from
			// advancing inline.
			p.Advance(Microsecond)
			ranPastPark = true
		}()
		never.Wait(p, "waiting forever")
		ranPastPark = true
	})
	spawner := e.Spawn("spawner", func(p *Proc) {
		defer e.Spawn("orphan", func(p *Proc) { lateRan = true })
		never.Wait(p, "waiting forever")
	})
	late := e.SpawnAt(Time(Second), "late", func(p *Proc) { lateRan = true })
	e.Spawn("killer", func(p *Proc) {
		p.Advance(Microsecond)
		e.Kill(victim)
		e.Kill(spawner)
		e.Kill(late)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n < before+3 {
		t.Fatalf("%d goroutines after Run, want the 3 killed processes on top of %d", n, before)
	}
	if unwound {
		t.Fatal("Kill ran the victim's deferred calls")
	}
	now, events := e.Now(), e.EventsExecuted()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before Spawn", n, before)
	}
	if !unwound || ranPastPark || lateRan {
		t.Fatalf("unwound=%v ranPastPark=%v lateRan=%v, want true false false", unwound, ranPastPark, lateRan)
	}
	if e.Now() != now || e.EventsExecuted() != events {
		t.Fatalf("Close moved the run's results: now %v -> %v, events %d -> %d", now, e.Now(), events, e.EventsExecuted())
	}
}

// TestCloseReportsPanicFromDeferredCall: a deferred call that fails while
// Close unwinds a process is reported, and the other processes are still
// released.
func TestCloseReportsPanicFromDeferredCall(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(1)
	var never Signal
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		never.Wait(p, "waiting forever")
	})
	other := e.Spawn("other", func(p *Proc) { never.Wait(p, "waiting forever") })
	e.Spawn("killer", func(p *Proc) {
		e.Kill(victim)
		e.Kill(other)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	err := e.Close()
	if err == nil || !strings.Contains(err.Error(), "victim") || !strings.Contains(err.Error(), "cleanup failed") {
		t.Fatalf("Close returned %v, want victim's deferred panic", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before Spawn", n, before)
	}
}

// TestFreezeThawReplaysOneWakeup: wake-ups that arrive while a process
// is frozen are swallowed and replayed as a single one at Thaw — for a
// parked process and for one frozen before its start event.
func TestFreezeThawReplaysOneWakeup(t *testing.T) {
	e := New(1)
	var sig Signal
	var log []string
	note := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%s %s at %v", p.Name(), what, p.Now())) }
	waiter := e.Spawn("waiter", func(p *Proc) {
		sig.Wait(p, "first")
		note(p, "woke")
		sig.Wait(p, "second")
		note(p, "woke")
	})
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		p.Advance(10 * Microsecond)
		note(p, "woke")
	})
	unborn := e.SpawnAt(Time(10*Microsecond), "unborn", func(p *Proc) { note(p, "started") })
	e.Spawn("driver", func(p *Proc) {
		p.Advance(5 * Microsecond)
		for _, q := range []*Proc{waiter, sleeper, unborn} {
			if !e.Freeze(q) || e.Freeze(q) {
				t.Errorf("Freeze(%s): want true then false", q.Name())
			}
		}
		p.Advance(10 * Microsecond) // t=15: sleeper's and unborn's events were swallowed at t=10
		sig.Broadcast()             // swallowed too
		p.Advance(10 * Microsecond) // t=25
		sig.Broadcast()             // nobody is waiting: the waiter has not re-registered
		p.Advance(5 * Microsecond)  // t=30
		e.Thaw(waiter)
		e.Thaw(sleeper)
		e.Thaw(unborn)
		e.Thaw(unborn) // no-op
		p.Advance(10 * Microsecond)
		sig.Broadcast() // t=40: the waiter's second wait
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"waiter woke at 30.000us",
		"sleeper woke at 30.000us",
		"unborn started at 30.000us",
		"waiter woke at 40.000us",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

// TestNestedSpawnAndNeverParking: a process may spawn another from
// inside its body (the child's coroutine is created while the parent's
// is running), and a process that returns without ever parking is just
// a start event.
func TestNestedSpawnAndNeverParking(t *testing.T) {
	e := New(1)
	var log []string
	e.Spawn("parent", func(p *Proc) {
		p.Advance(Microsecond)
		child := e.Spawn("child", func(c *Proc) {
			log = append(log, fmt.Sprintf("child ran at %v", c.Now()))
			e.Spawn("grandchild", func(g *Proc) {
				g.Advance(Microsecond)
				log = append(log, fmt.Sprintf("grandchild done at %v", g.Now()))
			})
		})
		if child.Done() {
			t.Error("child ran inside Spawn")
		}
		p.Advance(Microsecond)
		log = append(log, fmt.Sprintf("parent done at %v, child done=%v", p.Now(), child.Done()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The parent parked (resume at t=2us) before the child started, so its
	// resume precedes the grandchild's, also at t=2us.
	want := []string{
		"child ran at 1.000us",
		"parent done at 2.000us, child done=true",
		"grandchild done at 2.000us",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

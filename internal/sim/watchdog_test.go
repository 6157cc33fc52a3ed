package sim

import (
	"strings"
	"testing"
)

func TestWatchdogTripsOnEventCount(t *testing.T) {
	e := New(1)
	e.SetWatchdog(100, 0)
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	err := e.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("expected WatchdogError, got %v", err)
	}
	if we.Events < 100 {
		t.Fatalf("tripped after %d events, limit was 100", we.Events)
	}
	if !strings.Contains(we.Error(), "watchdog tripped") {
		t.Fatalf("unhelpful error: %v", we)
	}
}

func TestWatchdogTripsOnVirtualTime(t *testing.T) {
	e := New(1)
	e.SetWatchdog(0, Time(Millisecond))
	e.Spawn("runner", func(p *Proc) {
		for {
			p.Advance(100 * Microsecond)
		}
	})
	err := e.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("expected WatchdogError, got %v", err)
	}
	if we.Time < Time(Millisecond) {
		t.Fatalf("tripped at %v, limit was 1ms", we.Time)
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	e := New(1)
	e.Spawn("runner", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestKillStopsProcess(t *testing.T) {
	e := New(1)
	var victim *Proc
	steps := 0
	victim = e.Spawn("victim", func(p *Proc) {
		for {
			p.Advance(10 * Microsecond)
			steps++
		}
	})
	e.Spawn("killer", func(p *Proc) {
		p.Advance(35 * Microsecond)
		e.Kill(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !victim.killed {
		t.Fatal("victim not marked killed")
	}
	// The victim advanced at t=10,20,30 and was killed at t=35 before
	// its t=40 step could run; the already-scheduled wake still pops
	// (advancing the clock) but never resumes the corpse.
	if steps != 3 {
		t.Fatalf("victim took %d steps, want 3", steps)
	}
	if e.Now() != Time(40*Microsecond) {
		t.Fatalf("end time %v, want 40us", e.Now())
	}
}

func TestBackgroundEventsDiscardedAfterKill(t *testing.T) {
	e := New(1)
	bgRuns := 0
	var beat func()
	beat = func() {
		bgRuns++
		e.AfterBG(10*Microsecond, beat)
	}
	var never Signal
	victim := e.Spawn("victim", func(p *Proc) {
		beat()
		never.Wait(p, "waiting forever")
	})
	e.Spawn("killer", func(p *Proc) {
		p.Advance(25 * Microsecond)
		e.Kill(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Beats at 0,10,20 ran; once both procs were gone (killer exits at
	// 25us) the pending bg beat was discarded without advancing time.
	if e.Now() != Time(25*Microsecond) {
		t.Fatalf("bg events extended the run to %v", e.Now())
	}
	if bgRuns != 3 {
		t.Fatalf("bg beat ran %d times, want 3", bgRuns)
	}
}

package sim

import (
	"strings"
	"testing"
)

// The stall watchdog distinguishes livelock (events executing forever
// at a frozen clock) from legitimate long runs (many events, advancing
// clock). These tests pin both sides.

// diagLines is a Diagnoser with fixed lines.
type diagLines []string

func (d diagLines) Diagnose() []string { return d }

func TestStallWatchdogTripsOnZeroTimeLoop(t *testing.T) {
	e := New(1)
	e.SetStallWatchdog(500)
	e.SetDiagnoser(diagLines{"retry ring: 3 messages cycling"})
	var spin func()
	spin = func() { e.At(e.Now(), spin) }
	e.Spawn("bystander", func(p *Proc) {
		var s Signal
		s.Wait(p, "awaiting a wakeup that never comes")
	})
	e.At(0, spin)
	err := e.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("expected WatchdogError, got %v", err)
	}
	if !strings.Contains(we.Error(), "stalled") {
		t.Fatalf("error does not identify the stall: %v", we)
	}
	if !strings.Contains(we.Error(), "retry ring: 3 messages cycling") {
		t.Fatalf("error is missing the registered diagnostic: %v", we)
	}
}

func TestStallWatchdogIgnoresAdvancingRun(t *testing.T) {
	e := New(1)
	e.SetStallWatchdog(100)
	e.Spawn("runner", func(p *Proc) {
		for i := 0; i < 5000; i++ {
			p.Advance(Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("advancing run tripped the stall watchdog: %v", err)
	}
}

func TestDeadlockErrorCarriesDiagnostics(t *testing.T) {
	e := New(1)
	e.SetDiagnoser(diagLines{"lock table: rank3 holds w0 exclusive"})
	e.Spawn("waiter", func(p *Proc) {
		var s Signal
		s.Wait(p, "never signalled")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	msg := de.Error()
	if !strings.Contains(msg, "never signalled") {
		t.Fatalf("deadlock report lost the park reason: %v", msg)
	}
	if !strings.Contains(msg, "lock table: rank3 holds w0 exclusive") {
		t.Fatalf("deadlock report is missing the registered diagnostic: %v", msg)
	}
}

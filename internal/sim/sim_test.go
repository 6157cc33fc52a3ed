package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAdvanceAccumulatesVirtualTime(t *testing.T) {
	e := New(1)
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Advance(5 * Microsecond)
		end = p.Now()
	})
	e.MustRun()
	if end != Time(15*Microsecond) {
		t.Fatalf("end = %v, want 15us", end)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) {
		p.Advance(0)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	e.MustRun()
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for negative Advance")
			}
		}()
		p.Advance(-1)
	})
	_ = e.Run()
}

func TestAdvanceTo(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) {
		p.AdvanceTo(100)
		if p.Now() != 100 {
			t.Errorf("now = %v, want 100", p.Now())
		}
		p.AdvanceTo(50) // in the past: no-op
		if p.Now() != 100 {
			t.Errorf("now = %v after past AdvanceTo, want 100", p.Now())
		}
	})
	e.MustRun()
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.MustRun()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.MustRun()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	_ = e.Run()
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := New(42)
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Advance(Duration(1+e.Rand().Intn(5)) * Microsecond)
					trace = append(trace, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				}
			})
		}
		e.MustRun()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCompletionReleasesAwaiters(t *testing.T) {
	e := New(1)
	var c Completion
	var wokeAt Time
	e.Spawn("waiter", func(p *Proc) {
		c.Await(p, "test")
		wokeAt = p.Now()
	})
	e.Spawn("completer", func(p *Proc) {
		p.Advance(25 * Microsecond)
		c.Complete()
	})
	e.MustRun()
	if wokeAt != Time(25*Microsecond) {
		t.Fatalf("woke at %v, want 25us", wokeAt)
	}
	if !c.Done() {
		t.Fatal("completion not done")
	}
}

func TestCompletionAwaitAfterDoneReturnsImmediately(t *testing.T) {
	e := New(1)
	var c Completion
	c.Complete()
	c.Complete() // double-complete is a no-op
	e.Spawn("w", func(p *Proc) {
		c.Await(p, "test")
		if p.Now() != 0 {
			t.Errorf("await consumed time: %v", p.Now())
		}
	})
	e.MustRun()
}

func TestCompletionSetWaitsForAll(t *testing.T) {
	e := New(1)
	var cs CompletionSet
	cs.Add(3)
	var wokeAt Time
	e.Spawn("waiter", func(p *Proc) {
		cs.Wait(p, "all ops")
		wokeAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Duration(i*10) * Microsecond
		e.After(d, cs.Done)
	}
	e.MustRun()
	if wokeAt != Time(30*Microsecond) {
		t.Fatalf("woke at %v, want 30us", wokeAt)
	}
	if cs.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", cs.Pending())
	}
}

func TestCompletionSetUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on Done without Add")
		}
	}()
	var cs CompletionSet
	cs.Done()
}

func TestServerSerializesJobs(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	var ends []Time
	record := func() { ends = append(ends, e.Now()) }
	// Three jobs submitted at t=0, each 10us: they must finish at 10, 20, 30.
	s.Submit(0, 10*Microsecond, record)
	s.Submit(0, 10*Microsecond, record)
	s.Submit(0, 10*Microsecond, record)
	e.MustRun()
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if s.Jobs() != 3 || s.TotalBusy() != 30*Microsecond {
		t.Fatalf("jobs=%d busy=%v", s.Jobs(), s.TotalBusy())
	}
}

func TestServerRespectsReadyTime(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	end := s.Submit(Time(100*Microsecond), 5*Microsecond, nil)
	if end != Time(105*Microsecond) {
		t.Fatalf("end = %v, want 105us", end)
	}
	// A job ready earlier but submitted after queues behind the first.
	end2 := s.Submit(0, 5*Microsecond, nil)
	if end2 != Time(110*Microsecond) {
		t.Fatalf("end2 = %v, want 110us", end2)
	}
	e.MustRun()
}

func TestServerIdleGapThenBusy(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	s.Submit(0, 10*Microsecond, nil)
	// Job becoming ready after the backlog drains starts at its ready time.
	end := s.Submit(Time(50*Microsecond), 10*Microsecond, nil)
	if end != Time(60*Microsecond) {
		t.Fatalf("end = %v, want 60us", end)
	}
	e.MustRun()
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	var c Completion
	e.Spawn("stuck", func(p *Proc) {
		c.Await(p, "never completed")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Stuck) != 1 || de.Stuck[0] != "stuck: never completed" {
		t.Fatalf("stuck = %v", de.Stuck)
	}
	if de.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := New(1)
	var s Signal
	ready := false
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for !ready {
				s.Wait(p, "ready")
			}
			woke++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Advance(Microsecond)
		ready = true
		s.Broadcast()
	})
	e.MustRun()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	e := New(1)
	var started Time
	e.SpawnAt(Time(40*Microsecond), "late", func(p *Proc) { started = p.Now() })
	e.MustRun()
	if started != Time(40*Microsecond) {
		t.Fatalf("started at %v, want 40us", started)
	}
}

func TestProcAccessors(t *testing.T) {
	e := New(1)
	e.Spawn("alpha", func(p *Proc) {
		if p.Name() != "alpha" || p.ID() != 0 || p.Engine() != e {
			t.Errorf("accessors wrong: %v %v", p.Name(), p.ID())
		}
		if p.String() != "proc(alpha)" {
			t.Errorf("String = %q", p.String())
		}
	})
	e.MustRun()
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Micros() != 1500 {
		t.Errorf("Micros = %v", d.Micros())
	}
	if d.Millis() != 1.5 {
		t.Errorf("Millis = %v", d.Millis())
	}
	if (2 * Second).Seconds() != 2 {
		t.Errorf("Seconds = %v", (2 * Second).Seconds())
	}
	if Microseconds(2.5) != 2500*Nanosecond {
		t.Errorf("Microseconds = %v", Microseconds(2.5))
	}
	tm := Time(0).Add(3 * Microsecond)
	if tm.Sub(Time(Microsecond)) != 2*Microsecond {
		t.Errorf("Sub = %v", tm.Sub(Time(Microsecond)))
	}
	if tm.Micros() != 3 {
		t.Errorf("Time.Micros = %v", tm.Micros())
	}
	if tm.String() != "3.000us" || (3*Microsecond).String() != "3.000us" {
		t.Errorf("String = %q %q", tm.String(), (3 * Microsecond).String())
	}
}

// Property: for any set of (time, payload) events, the engine fires them
// in nondecreasing time order, with ties broken by scheduling order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := New(1)
		type fired struct {
			at  Time
			idx int
		}
		var got []fired
		for i, raw := range times {
			i := i
			at := Time(raw)
			e.At(at, func() { got = append(got, fired{at, i}) })
		}
		e.MustRun()
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].idx < got[j].idx
		}) {
			return false
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a serial server's completions for same-ready jobs equal the
// prefix sums of their durations.
func TestServerPrefixSumProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		e := New(1)
		s := NewServer(e)
		var sum Duration
		for _, d := range durs {
			dd := Duration(d)
			sum += dd
			if s.Submit(0, dd, nil) != Time(sum) {
				return false
			}
		}
		return s.TotalBusy() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance in random slices always lands the process at the sum.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16, seed int64) bool {
		e := New(seed)
		var sum Duration
		ok := true
		e.Spawn("p", func(p *Proc) {
			for _, s := range steps {
				sum += Duration(s)
				p.Advance(Duration(s))
			}
			ok = p.Now() == Time(sum)
		})
		e.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.After(Microsecond, tick)
	e.MustRun()
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := New(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ResetTimer()
	e.MustRun()
}

// TestBackgroundRunners: AtBGRun, AfterBGRun and AtBGRunReserved are
// background events that carry a Runner. They run in (time, seq) order
// with everything else while a process is alive — a reserved seq sorts
// where it was taken, not where it was scheduled — and are discarded,
// without moving the clock, once the last process has finished. A FIFO
// kept behind a reserved head (the retransmission timers of internal/mpi)
// dies with the head: nothing promotes what was never run.
func TestBackgroundRunners(t *testing.T) {
	for _, fastOff := range []bool{false, true} {
		e := New(1)
		if fastOff {
			e.DisableFastPaths()
		}
		var got []string
		note := func(s string) Runner { return runnerFunc(func() { got = append(got, s) }) }
		e.Spawn("p", func(p *Proc) {
			first := e.ReserveSeq() // before "b", scheduled after it
			e.AtBGRun(10, note("b"))
			e.AtBGRunReserved(10, first, note("a"))
			e.AfterBGRun(20, note("c"))
			e.AtBGRunReserved(60, e.ReserveSeq(), runnerFunc(func() {
				got = append(got, "late")
				e.AtBGRunReserved(70, e.ReserveSeq(), note("promoted"))
			}))
			p.Advance(50)
		})
		e.MustRun()
		if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("fastOff=%v: ran %v, want %v", fastOff, got, want)
		}
		if e.Now() != 50 {
			t.Fatalf("fastOff=%v: run ended at %v, want 50: a background event moved the clock", fastOff, e.Now())
		}
		if d := e.SchedulerState().Depth; d != 0 {
			t.Fatalf("fastOff=%v: %d events left in the queue", fastOff, d)
		}
	}
}

// TestBackgroundRunnerInThePastPanics: the background entry points check
// their times like the foreground ones.
func TestBackgroundRunnerInThePastPanics(t *testing.T) {
	for name, sched := range map[string]func(e *Engine){
		"AtBGRun":         func(e *Engine) { e.AtBGRun(5, runnerFunc(func() {})) },
		"AtBGRunReserved": func(e *Engine) { e.AtBGRunReserved(5, e.ReserveSeq(), runnerFunc(func() {})) },
	} {
		e := New(1)
		var caught interface{}
		e.Spawn("p", func(p *Proc) {
			p.Advance(10)
			defer func() { caught = recover() }()
			sched(e)
		})
		e.MustRun()
		if caught == nil {
			t.Fatalf("%s accepted a time before now", name)
		}
	}
}

package sim

import "fmt"

// procStopped is the private panic value park raises when Engine.Close
// stops a parked process: it unwinds the process's stack (running its
// deferred calls) and is swallowed by the spawn wrapper.
type procStopped struct{}

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) that the
// Engine's event loop switches into directly, with no run queue and no
// channel in between. All Proc methods must be called from the
// process's own goroutine while it is running.
type Proc struct {
	eng  *Engine
	id   int
	name string

	// The coroutine: next switches into the process and returns when it
	// parks or finishes, yield switches back to whoever called next
	// (false once stop was called), stop releases an unfinished process
	// (see Engine.Close). yield is set when the body first runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	state  procState
	killed bool // Engine.Kill called: never resume again

	// Engine.Freeze state: while frozen, resume/start events addressed
	// to this process are swallowed; deferredWake records that at least
	// one was, so Thaw can replay a single coalesced wakeup.
	frozen       bool
	deferredWake bool

	parkReason string

	// Served work (see Serve): cont is what the event loop runs when the
	// served step in flight, or the served wait (Completion.Serve), ends;
	// it is set from the first served step until cont asks for the switch
	// back in. settling marks the one park allowed meanwhile, Settle's.
	// waitFor is what a served wait waits for, reported in its stead while
	// it lasts.
	cont     Continuation
	settling bool
	waitFor  string

	// sigNext is the waiter after this one on the Signal it waits on: a
	// process waits on at most one at a time, so the signals' FIFOs run
	// through their waiters and registering allocates nothing.
	sigNext *Proc
}

// Continuation is what the event loop runs in a process's stead when a
// step started by Proc.Serve, or a wait registered by Completion.Serve or
// CompletionSet.Serve, ends (see Serve).
type Continuation interface {
	// Continue runs in engine context, at the pop of the served step or
	// of a served wait's wake-up: the instant the process would have been
	// switched back in. It either serves what comes next (Serve,
	// Completion.Serve, CompletionSet.Serve) and reports true, or reports
	// false to have the process switched in.
	Continue() bool
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// ID returns the process's spawn index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Advance consumes d of virtual time, modeling computation or a fixed
// latency: it schedules the process's resume at now+d and parks. Other
// processes and events run in the meantime. Work that nothing observes
// between its parts is one Advance of their sum: one popped event, not
// one per part.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s advancing by negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.eng.atResume(p.eng.now.Add(d), p)
	p.park("advancing")
}

// Serve is Advance for work the event loop finishes in the process's
// stead: it schedules p's resume at now+d and returns without parking.
// When the resume pops, execOne calls c.Continue instead of switching into
// the process; c either serves what comes next (Serve again, from engine
// context) or has the process switched in. The step is the popped event
// Advance(d) schedules, under the same seq, so a continuation that does
// exactly what the process would have done at that pop leaves the engine
// exactly where the process would have.
//
// The process may go on running while it is served, but only on state no
// other process or event can see: until its continuation lets go, anything
// else it does that parks must Settle first, and any other park panics.
// Serve reports whether a step is pending; false (d zero) means nothing
// was scheduled and c was not attached. It requires the fast paths (see
// DisableFastPaths).
func (p *Proc) Serve(c Continuation, d Duration) bool {
	if p.eng.fastOff {
		panic(fmt.Sprintf("sim: %s serving a step with the fast paths disabled", p.name))
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: %s advancing by negative duration %v", p.name, d))
	}
	if d == 0 {
		return false
	}
	p.eng.atResume(p.eng.now.Add(d), p)
	p.cont = c
	return true
}

// Serve is Wait for a process whose calls the event loop serves (see
// Proc.Serve): it registers p on s as Wait does, without parking. The
// wake-up is the resume event Wait's would be, under the same seq, and the
// event loop runs c there instead of switching into p; c re-checks what p
// waited for, as a waiter must. Like Proc.Serve it requires the fast
// paths, and p may go on running only on state nobody else sees. While the
// wait lasts, deadlock and watchdog reports name reason for p.
func (s *Signal) Serve(p *Proc, c Continuation, reason string) {
	if p.eng.fastOff {
		panic(fmt.Sprintf("sim: %s serving a wait with the fast paths disabled", p.name))
	}
	s.add(p)
	p.cont = c
	p.waitFor = reason
}

// Settle parks the process until the event loop has served its steps and
// waits to the end and switched it back in, at the pop where it would have
// woken had it parked on each of them itself. No-op when nothing is served.
func (p *Proc) Settle() {
	if p.cont == nil {
		return
	}
	p.settling = true
	p.park("settling served calls")
	p.settling = false
}

// park blocks the process until a resume event addressed to it fires:
// a single coroutine switch back to the event loop that resumed it.
// reason appears in deadlock reports. A false yield means Engine.Close
// is releasing the process; that holds for every later park too, so one
// reached from a deferred call during the unwinding re-raises at once.
// Parking while it is served, other than in Settle, panics: the process
// would be waiting at a time it has not reached.
func (p *Proc) park(reason string) {
	if p.cont != nil && !p.settling {
		panic(fmt.Sprintf("sim: %s parked (%s) while it is served; Settle first", p.name, reason))
	}
	p.state = stateParked
	p.parkReason = reason
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
	p.state = stateRunning
	p.parkReason = ""
}

// wake schedules the parked process to resume at the current virtual
// time. It must only be called on a process that is parked (or will
// remain parked until the event fires), which the synchronization
// primitives in this package guarantee — the engine's resume dispatch
// panics otherwise.
func (p *Proc) wake() {
	p.eng.atResume(p.eng.now, p)
}

// Done reports whether the process's function has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Signal is a broadcast condition variable in virtual time. Processes
// Wait on it after observing an unsatisfied predicate; any simulation
// context that changes the predicate calls Broadcast. Waiters must
// re-check their predicate after waking (wakeups can be spurious when
// several processes share a Signal).
type Signal struct {
	// The waiters in arrival order, linked through Proc.sigNext; first is
	// nil exactly when nobody waits.
	first, last *Proc
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc, reason string) {
	s.add(p)
	p.park(reason)
}

// add registers p as the newest waiter.
func (s *Signal) add(p *Proc) {
	p.sigNext = nil
	if s.first == nil {
		s.first = p
	} else {
		s.last.sigNext = p
	}
	s.last = p
}

// Broadcast wakes every current waiter, in arrival order.
func (s *Signal) Broadcast() {
	p := s.first
	// Unlink the list before waking anyone: wake only schedules resume
	// events, so no waiter re-registers until after this loop returns
	// (strict alternation), but the list is empty for whoever does.
	s.first, s.last = nil, nil
	for p != nil {
		next := p.sigNext
		p.sigNext = nil
		p.wake()
		p = next
	}
}

// Completion is a one-shot future: it transitions to done exactly once
// and releases every process awaiting it. The zero value is ready to use.
type Completion struct {
	done bool
	sig  Signal
}

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Complete marks the completion done and wakes all awaiters. Completing
// twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	c.sig.Broadcast()
}

// Await parks p until the completion is done. Returns immediately if it
// already is.
func (c *Completion) Await(p *Proc, reason string) {
	for !c.done {
		c.sig.Wait(p, reason)
	}
}

// Serve is Await for a process whose calls the event loop serves (see
// Proc.Serve): p, parked in Settle or still running ahead of the clock, is
// registered without parking again, and when the completion wakes it the
// event loop runs cont at that resume event instead of switching into p.
// cont re-checks, as Await's loop does. Serve reports false, doing nothing,
// when the completion is already done. While the wait lasts, deadlock and
// watchdog reports name reason for p.
func (c *Completion) Serve(p *Proc, cont Continuation, reason string) bool {
	if c.done {
		return false
	}
	c.sig.Serve(p, cont, reason)
	return true
}

// CompletionSet tracks a dynamic count of outstanding operations and lets
// a process wait for the count to reach zero. It is the simulation
// analogue of a WaitGroup.
type CompletionSet struct {
	pending int
	sig     Signal
}

// Add notes n more outstanding operations.
func (c *CompletionSet) Add(n int) { c.pending += n }

// Done notes one operation finished and wakes waiters when none remain.
func (c *CompletionSet) Done() { c.DoneN(1) }

// DoneN notes n operations finished at once, as n calls of Done would.
func (c *CompletionSet) DoneN(n int) {
	c.pending -= n
	if c.pending < 0 {
		panic("sim: CompletionSet.Done without matching Add")
	}
	if c.pending == 0 {
		c.sig.Broadcast()
	}
}

// Pending returns the number of outstanding operations.
func (c *CompletionSet) Pending() int { return c.pending }

// Waiting reports whether a process waits (Wait, Serve) for the count to
// reach zero.
func (c *CompletionSet) Waiting() bool { return c.sig.first != nil }

// Wait parks p until no operations are outstanding.
func (c *CompletionSet) Wait(p *Proc, reason string) {
	for c.pending > 0 {
		c.sig.Wait(p, reason)
	}
}

// Serve is Wait as Completion.Serve is Await: it reports false, doing
// nothing, when no operations are outstanding.
func (c *CompletionSet) Serve(p *Proc, cont Continuation, reason string) bool {
	if c.pending == 0 {
		return false
	}
	c.sig.Serve(p, cont, reason)
	return true
}

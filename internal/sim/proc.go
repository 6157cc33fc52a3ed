package sim

import "fmt"

// procStopped is the private panic value park raises when Engine.Close
// stops a parked process: it unwinds the process's stack (running its
// deferred calls) and is swallowed by the spawn wrapper.
type procStopped struct{}

type procState int

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

	state      procState
	parkReason string
	killed     bool // Engine.Kill called: never resume again

	// Engine.Freeze state: while frozen, resume/start events addressed
	// to this process are swallowed; deferredWake records that at least
	// one was, so Thaw can replay a single coalesced wakeup.
	frozen       bool
	deferredWake bool

	// Advance chain (see AdvanceChain): the steps of the chain in flight
	// and the index of the next one. chain[chainPos:] is what the event
	// loop still has to serve before it switches back into the process.
	chain    []Duration
	chainPos int
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
// processes and events run in the meantime. A run of back-to-back
// advances is cheaper as one AdvanceChain.
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

// AdvanceChain consumes the durations in ds back to back: the clock, the
// event count, every (time, seq) key and every statistic end up exactly
// where
//
//	for _, d := range ds { p.Advance(d) }
//
// leaves them, but the process parks at most once. A process that wakes
// from one Advance only to call the next does nothing in between that
// anyone can observe, so the event loop does it in the process's stead:
// when the resume event of a step pops, execOne itself schedules the next
// step's resume (Engine.serveChain) and switches into the coroutine only
// after the last step. With the fast paths disabled the chain is the loop
// above, literally — which makes the fast-path on/off identity tests its
// differential oracle.
func (p *Proc) AdvanceChain(ds ...Duration) {
	p.chain = append(p.chain[:0], ds...)
	p.runChain()
}

// AdvanceRepeat is AdvanceChain over n steps of d each.
func (p *Proc) AdvanceRepeat(d Duration, n int) {
	p.chain = p.chain[:0]
	for ; n > 0; n-- {
		p.chain = append(p.chain, d)
	}
	p.runChain()
}

func (p *Proc) runChain() {
	e := p.eng
	if e.fastOff {
		p.chainPos = len(p.chain) // nothing for the event loop to serve
		for i := 0; i < len(p.chain); i++ {
			p.Advance(p.chain[i])
		}
		return
	}
	for _, d := range p.chain {
		if d < 0 {
			panic(fmt.Sprintf("sim: %s advancing by negative duration %v", p.name, d))
		}
	}
	p.chainPos = 0
	if e.serveChain(p) {
		p.park("advancing")
	}
}

// AdvanceTo consumes virtual time until at least time t. It is a no-op if
// t is not in the future.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.eng.now {
		p.Advance(t.Sub(p.eng.now))
	}
}

// park blocks the process until a resume event addressed to it fires:
// a single coroutine switch back to the event loop that resumed it.
// reason appears in deadlock reports. A false yield means Engine.Close
// is releasing the process; that holds for every later park too, so one
// reached from a deferred call during the unwinding re-raises at once.
func (p *Proc) park(reason string) {
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

// Killed reports whether Engine.Kill has terminated this process.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the process's function has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Frozen reports whether Engine.Freeze currently suspends this process.
func (p *Proc) Frozen() bool { return p.frozen }

// Signal is a broadcast condition variable in virtual time. Processes
// Wait on it after observing an unsatisfied predicate; any simulation
// context that changes the predicate calls Broadcast. Waiters must
// re-check their predicate after waking (wakeups can be spurious when
// several processes share a Signal).
type Signal struct {
	// first is the oldest waiter, held inline: most signals only ever
	// have one (an origin awaiting its own lock grant or its own acks),
	// and for those waiting allocates nothing. It is nil exactly when
	// nobody waits.
	first   *Proc
	waiters []*Proc // the waiters after first, in arrival order
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc, reason string) {
	if s.first == nil {
		s.first = p
	} else {
		s.waiters = append(s.waiters, p)
	}
	p.park(reason)
}

// Broadcast wakes every current waiter, in arrival order.
func (s *Signal) Broadcast() {
	first := s.first
	if first == nil {
		return
	}
	// Reuse the backing array: wake only schedules resume events, so no
	// waiter re-registers until after this loop returns (strict
	// alternation), and re-Waits then overwrite slots already consumed.
	ws := s.waiters
	s.first, s.waiters = nil, ws[:0]
	first.wake()
	for _, p := range ws {
		p.wake()
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
func (c *CompletionSet) Done() {
	c.pending--
	if c.pending < 0 {
		panic("sim: CompletionSet.Done without matching Add")
	}
	if c.pending == 0 {
		c.sig.Broadcast()
	}
}

// Pending returns the number of outstanding operations.
func (c *CompletionSet) Pending() int { return c.pending }

// Wait parks p until no operations are outstanding.
func (c *CompletionSet) Wait(p *Proc, reason string) {
	for c.pending > 0 {
		c.sig.Wait(p, reason)
	}
}

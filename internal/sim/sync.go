package sim

// Link is the intrusive queue link of a Runner that waits in FIFOs: the
// next waiter and the (At, Seq) key its event will fire under. The
// object embeds one Link and, because it waits in at most one queue at a
// time, whichever queue holds it owns all three fields: a Server's
// backlog (Server.SubmitRun), or a FIFO its own package keeps (the wire
// chains and deferred lists of internal/mpi). A queue that takes a
// waiter overwrites the link; one that lets it go clears Next.
type Link struct {
	Next Linked
	At   Time
	Seq  uint64
}

// Linked is a Runner that carries its own queue link, so queuing it
// allocates nothing.
type Linked interface {
	Runner
	QueueLink() *Link
}

// Server models a serial resource (a CPU servicing a work queue): jobs
// submitted to it execute one at a time in submission order, each
// occupying the server for its duration. The zero value is an idle
// server.
//
// Completion times of a serial server are monotone in submission order,
// so only the job at the head of the backlog keeps an event in the
// engine's event queue; the rest wait in a FIFO linked through the jobs
// themselves and are promoted one at a time as completions fire. A deep
// backlog (a saturated ghost under all-to-all load) therefore costs O(1)
// queue residency instead of one ladder entry per queued job, and no
// memory beyond the jobs. Each job's event sequence number is reserved at
// submission, which makes the executed timeline — every (time, seq)
// pair — identical to scheduling all completions eagerly.
type Server struct {
	eng       *Engine
	busyUntil Time

	// The backlog, in submission order. While head is set, its completion
	// event (the server's one resident event, keyed by head's link) is in
	// the engine's queue.
	head Linked
	tail *Link

	released bool
}

// funcRunner is a closure as a Runner.
type funcRunner func()

func (f funcRunner) Step() { f() }

// NewServer returns an idle serial server on e.
func NewServer(e *Engine) *Server { return &Server{eng: e} }

// SubmitRun enqueues a job that becomes runnable at time ready and takes
// d to service; r.Step() runs when it finishes. It returns the job's
// completion time and does not block the caller. A Linked r waits in the
// backlog through its own link (the hot AM service path: queuing
// allocates nothing, however deep the backlog); any other Runner is
// scheduled at its completion time right away, under the seq the backlog
// would have reserved for it.
func (s *Server) SubmitRun(ready Time, d Duration, r Runner) Time {
	end := s.occupy(ready, d)
	if s.eng.fastOff {
		s.eng.AtRun(end, r)
		return end
	}
	if s.released {
		panic("sim: job submitted to a released Server")
	}
	if j, ok := r.(Linked); ok {
		s.enqueue(end, j)
	} else {
		s.eng.AtRun(end, r)
	}
	return end
}

// enqueue reserves the job's event seq (exactly where an eager schedule
// would have assigned it) and either schedules its completion or links
// it behind the backlog's tail. With the fast paths off the callers
// schedule every completion eagerly instead (the A/B bisection path).
func (s *Server) enqueue(end Time, j Linked) {
	e := s.eng
	e.seq++
	l := j.QueueLink()
	l.Next, l.At, l.Seq = nil, end, e.seq
	if s.head != nil {
		s.tail.Next = j
		s.tail = l
		return
	}
	s.head, s.tail = j, l
	e.events.push(event{at: end, seq: l.Seq, run: s, kind: evRun})
}

// Step fires the head job's completion and promotes the next queued job,
// re-using the seq reserved at its submission so the event order is
// exactly the eager schedule's. It is the Runner the server registers
// for its resident queued event; the head is unlinked and its successor
// promoted before the callback, so a callback that resubmits (itself
// included) sees consistent state.
func (s *Server) Step() {
	job := s.head
	if job == nil {
		return // the resident event of a released backlog
	}
	l := job.QueueLink()
	next := l.Next
	l.Next = nil
	s.head = next
	if next != nil {
		nl := next.QueueLink()
		s.eng.events.push(event{at: nl.At, seq: nl.Seq, run: s, kind: evRun})
	} else {
		s.tail = nil
	}
	job.Step()
}

// Release drops the backlog of Linked jobs without running it, the head
// included: the server's resident event, if any, fires as a no-op. It is
// for a server whose owner died — the queued jobs' links are free for
// another queue the moment Release returns — and the server takes no
// further jobs. Plain Runners were scheduled at submission and still run.
func (s *Server) Release() {
	s.head, s.tail, s.released = nil, nil, true
}

// occupy reserves the server for a d-long job runnable at ready and
// returns its completion time.
func (s *Server) occupy(ready Time, d Duration) Time {
	start := s.eng.now
	if ready > start {
		start = ready
	}
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end := start.Add(d)
	s.busyUntil = end
	return end
}

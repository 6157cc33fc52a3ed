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
// engine's heap; the rest wait in a FIFO linked through the jobs
// themselves and are promoted one at a time as completions fire. A deep
// backlog (a saturated ghost under all-to-all load) therefore costs O(1)
// heap residency instead of one heap entry per queued job, and no memory
// beyond the jobs. Each job's event sequence number is reserved at
// submission, which makes the executed timeline — every (time, seq)
// pair — identical to scheduling all completions eagerly.
type Server struct {
	eng       *Engine
	busyUntil Time
	busy      Duration // total busy time, for utilization accounting
	jobs      int

	// The backlog, in submission order. While head is set, its completion
	// event (the server's one resident event, keyed by head's link) is in
	// the engine's queue.
	head Linked
	tail *Link

	free     *jobNode // spent nodes of plain Runners and closures
	released bool
}

// jobNode queues a completion callback that carries no link of its own.
type jobNode struct {
	link Link
	r    Runner
	s    *Server
	free *jobNode
}

// QueueLink implements Linked.
func (n *jobNode) QueueLink() *Link { return &n.link }

// Step runs the callback. The node goes back to its server first: it is
// off the backlog by now, and the callback may resubmit.
func (n *jobNode) Step() {
	r, s := n.r, n.s
	n.r = nil
	n.free, s.free = s.free, n
	r.Step()
}

// funcRunner is a closure as a Runner.
type funcRunner func()

func (f funcRunner) Step() { f() }

// NewServer returns an idle serial server on e.
func NewServer(e *Engine) *Server { return &Server{eng: e} }

// Submit enqueues a job that becomes runnable at time ready, takes d to
// service, and invokes fn (if non-nil) when it finishes. It returns the
// job's completion time. Submit does not block the caller.
func (s *Server) Submit(ready Time, d Duration, fn func()) Time {
	if fn == nil {
		return s.occupy(ready, d)
	}
	return s.SubmitRun(ready, d, funcRunner(fn))
}

// SubmitRun is Submit with a closure-free completion callback: r.Step()
// runs when the job finishes. A Linked r waits in the backlog through its
// own link (the hot AM service path: queuing allocates nothing, however
// deep the backlog); any other Runner through a node the server recycles.
func (s *Server) SubmitRun(ready Time, d Duration, r Runner) Time {
	end := s.occupy(ready, d)
	if s.eng.fastOff {
		s.eng.AtRun(end, r)
		return end
	}
	j, ok := r.(Linked)
	if !ok {
		j = s.node(r)
	}
	s.enqueue(end, j)
	return end
}

// node wraps r in a recycled (or new) jobNode.
func (s *Server) node(r Runner) *jobNode {
	n := s.free
	if n == nil {
		return &jobNode{r: r, s: s}
	}
	s.free, n.free = n.free, nil
	n.r = r
	return n
}

// enqueue reserves the job's event seq (exactly where an eager schedule
// would have assigned it) and either schedules its completion or links
// it behind the backlog's tail. With the fast paths off the callers
// schedule every completion eagerly instead (the A/B bisection path).
func (s *Server) enqueue(end Time, j Linked) {
	if s.released {
		panic("sim: job submitted to a released Server")
	}
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
// for its resident heap event; the head is unlinked and its successor
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

// Release drops the backlog without running it, the head included: the
// server's resident event, if any, fires as a no-op. It is for a server
// whose owner died — the queued jobs' links are free for another queue
// the moment Release returns — and the server takes no further jobs.
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
	s.busy += d
	s.jobs++
	return end
}

// BusyUntil returns the time at which the server's current backlog
// drains.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// TotalBusy returns the cumulative service time of all submitted jobs.
func (s *Server) TotalBusy() Duration { return s.busy }

// Jobs returns the number of jobs ever submitted.
func (s *Server) Jobs() int { return s.jobs }

package mpi

import (
	"repro/internal/sim"
)

// Request is the handle of a nonblocking operation (MPI_Request). Wait
// or Test it for completion.
type Request struct {
	r    *Rank
	done *sim.Completion
	recv *postedRecv // nil for sends
	kind string
}

// Done reports whether the operation has completed (a non-consuming
// peek). It settles first, like every call that reads what other ranks'
// events change.
func (q *Request) Done() bool {
	q.r.settle()
	return q.done.Done()
}

// Wait blocks until the operation completes and returns the received
// data and status (both zero values for sends). Corresponds to
// MPI_Wait. While waiting the rank is inside MPI, so software RMA
// targeted at it progresses.
func (q *Request) Wait() ([]byte, Status) {
	q.r.mpiEnter()
	defer q.r.mpiLeave()
	q.done.Await(q.r.proc, "MPI_Wait("+q.kind+")")
	return q.result()
}

// Test returns (data, status, true) if complete, or ok=false without
// blocking. Corresponds to MPI_Test.
func (q *Request) Test() ([]byte, Status, bool) {
	q.r.mpiEnter()
	defer q.r.mpiLeave()
	if !q.done.Done() {
		return nil, Status{}, false
	}
	data, st := q.result()
	return data, st, true
}

func (q *Request) result() ([]byte, Status) {
	if q.recv != nil && q.recv.msg != nil {
		m := q.recv.msg
		return m.data, Status{Source: m.src, Tag: m.tag}
	}
	return nil, Status{}
}

// WaitAll waits for every request in order (MPI_Waitall).
func WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		q.Wait()
	}
}

// Isend starts a nonblocking send (MPI_Isend). Under this runtime's
// eager-send model the request completes at issue; the handle keeps
// call sites faithful to MPI.
func (c *Comm) Isend(dest, tag int, data []byte) *Request {
	c.Send(dest, tag, data)
	done := &sim.Completion{}
	done.Complete()
	return &Request{r: c.r, done: done, kind: "isend"}
}

// Irecv posts a nonblocking receive (MPI_Irecv). Note the rank is NOT
// inside MPI while the request is pending: posting a receive and then
// computing does not give incoming RMA any progress — which is why
// applications cannot substitute Irecv for asynchronous progress.
func (c *Comm) Irecv(src, tag int) *Request {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	mb := &r.mailbox
	for i, m := range mb.msgs {
		if match(c.g.id, src, tag, m) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			pr := &postedRecv{msg: m}
			pr.done.Complete()
			return &Request{r: r, done: &pr.done, recv: pr, kind: "irecv"}
		}
	}
	pr := &postedRecv{commID: c.g.id, src: src, tag: tag}
	mb.recvs = append(mb.recvs, pr)
	return &Request{r: r, done: &pr.done, recv: pr, kind: "irecv"}
}

// Probe blocks until a matching message is available without receiving
// it, returning its status (MPI_Probe).
func (c *Comm) Probe(src, tag int) Status {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	for {
		if m := c.findUnexpected(src, tag); m != nil {
			return Status{Source: m.src, Tag: m.tag}
		}
		r.mailbox.probeSig.Wait(r.proc, "MPI_Probe")
	}
}

// Iprobe checks for a matching message without blocking (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	r := c.r
	r.mpiEnter()
	defer r.mpiLeave()
	if m := c.findUnexpected(src, tag); m != nil {
		return Status{Source: m.src, Tag: m.tag}, true
	}
	return Status{}, false
}

func (c *Comm) findUnexpected(src, tag int) *inMsg {
	for _, m := range c.r.mailbox.msgs {
		if match(c.g.id, src, tag, m) {
			return m
		}
	}
	return nil
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv),
// avoiding the deadlock of two blocking calls ordered oppositely.
func (c *Comm) Sendrecv(dest, sendTag int, data []byte, src, recvTag int) ([]byte, Status) {
	c.Send(dest, sendTag, data)
	return c.Recv(src, recvTag)
}

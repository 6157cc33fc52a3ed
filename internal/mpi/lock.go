package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// lockManager arbitrates passive-target locks for one target rank of one
// window. Shared locks coexist; an exclusive lock excludes everything.
// Requests are granted in arrival order (FIFO fairness), so exclusive
// epochs from different origins to the same target serialize — the
// serialization cost that motivates Casper's per-user-process
// overlapping windows (Section III-A).
type lockManager struct {
	shared    int
	exclusive bool
	grants    int64 // total grants, for tests/inspection

	// Requests waiting for the lock are queue[head:], in arrival order.
	// A popped slot is cleared so a granted request is not pinned, and
	// the backing array is reused once the queue drains.
	queue []*lockMsg
	head  int

	// dead marks the manager's target as confirmed crashed. A dead
	// target cannot serialize anything, so the manager stops
	// arbitrating: the exclusive hold (if any) is downgraded to a
	// counted shared hold, the whole queue is admitted, and every later
	// request is granted immediately. Releases keep decrementing the
	// shared count so epoch teardown stays balanced. See reclaim.
	dead bool
}

// lockPhase is where a lockMsg is in the lock protocol; the phases
// follow one another strictly (an origin releases only what it was
// granted), so one message serves all three legs.
type lockPhase uint8

const (
	lockPhaseNone    lockPhase = iota
	lockPhaseRequest           // request crossing to the target's lock manager
	lockPhaseGrant             // grant crossing back to the origin
	lockPhaseRelease           // release crossing to the lock manager
)

// lockMsg is the lock protocol of one (origin, target) channel: the
// origin-side acquisition state and, as a sim.Runner, the message that
// carries request, grant and release across the wire. It is embedded in
// the channel state, so a lock request allocates nothing of its own.
type lockMsg struct {
	win       *Win  // the origin's handle
	target    int32 // comm rank; a list-form channel table (Win.chans) sorts by it
	excl      bool
	phase     lockPhase
	requested bool

	// ep is the target's passive-epoch flags (Win.epoch) as of the last
	// call that reached the channel: the engine side's copy of them, which
	// Flush, FlushAll and UnlockAll read where they run (see issue.go).
	ep uint8

	granted sim.Completion

	// Ops issued before the grant arrived, in issue order, linked through
	// rmaOp.link (an op is queued here or on the wire, never both).
	queuedHead, queuedTail *rmaOp
}

// queue holds op back until the grant arrives.
func (q *lockMsg) queue(op *rmaOp) {
	if q.queuedTail == nil {
		q.queuedHead = op
	} else {
		q.queuedTail.link.Next = op
	}
	q.queuedTail = op
}

// Step implements sim.Runner: the message arrives.
func (q *lockMsg) Step() {
	switch q.phase {
	case lockPhaseRequest:
		q.mgr().request(q)
	case lockPhaseGrant:
		q.granted.Complete()
		op := q.queuedHead
		q.queuedHead, q.queuedTail = nil, nil
		for op != nil {
			// Re-issue from the origin's window handle; the op already
			// carries all its state.
			next := op.next()
			op.link.Next = nil
			q.win.send(op)
			op = next
		}
	case lockPhaseRelease:
		q.mgr().release(q.win.me, q.excl)
	default:
		panic(fmt.Sprintf("mpi: lockMsg.Step in phase %d", q.phase))
	}
}

// mgr returns the target's lock manager, which requestLock instantiated.
func (q *lockMsg) mgr() *lockManager { return q.win.g.lockMgrs[q.target] }

// grant runs at the target, where the manager arbitrates: the grant
// travels back to the origin.
func (q *lockMsg) grant() {
	w := q.win
	tr := w.g.rankOf(int(q.target))
	var back sim.Duration
	if int(q.target) != w.me {
		back = tr.transferTo(w.g.comm.ranks[w.me], 16)
	}
	q.phase = lockPhaseGrant
	tr.eng.AtRun(tr.eng.Now().Add(back), q)
}

// waiting returns the queued requests in arrival order.
func (m *lockManager) waiting() []*lockMsg { return m.queue[m.head:] }

// pop removes the head of the queue.
func (m *lockManager) pop() *lockMsg {
	head := m.queue[m.head]
	m.queue[m.head] = nil
	m.head++
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	return head
}

// compatible reports whether a request can be granted now. To preserve
// FIFO fairness a shared request behind a queued exclusive one waits.
func (m *lockManager) compatible(req *lockMsg) bool {
	if m.exclusive {
		return false
	}
	if req.excl {
		return m.shared == 0
	}
	return len(m.waiting()) == 0
}

// request is invoked in engine context when a lock request arrives.
func (m *lockManager) request(req *lockMsg) {
	if m.dead {
		// The target is confirmed dead: grant immediately as a counted
		// shared hold so the origin's epoch can open, reroute its
		// operations, and close without waiting on a corpse.
		m.shared++
		m.grants++
		req.grant()
		return
	}
	if m.compatible(req) {
		m.admit(req)
		return
	}
	m.queue = append(m.queue, req)
}

func (m *lockManager) admit(req *lockMsg) {
	if req.excl {
		m.exclusive = true
	} else {
		m.shared++
	}
	m.grants++
	req.grant()
}

// reclaim transitions the manager into dead mode after its target is
// confirmed crashed, mid-epoch if need be: the current exclusive hold
// (whose holder may itself be the dead rank, or an origin about to
// reroute) is downgraded to a counted shared hold and every queued
// waiter is admitted shared-counted, so no origin stays parked on a
// grant the dead target would never have serialized anyway. Exclusion
// is no longer meaningful — §III-B single-server ordering for the
// reclaimed target is re-established by the origins rerouting onto the
// surviving ghost's manager. Returns the number of holds and waiters
// reclaimed: standing shared holds (the manager stops enforcing their
// release ordering), a converted exclusive hold, and admitted waiters;
// 0 when the manager was idle.
func (m *lockManager) reclaim() int {
	if m.dead {
		return 0
	}
	m.dead = true
	n := m.shared
	if m.exclusive {
		m.exclusive = false
		m.shared++
		n++
	}
	for len(m.waiting()) > 0 {
		head := m.pop()
		m.shared++
		m.grants++
		head.grant()
		n++
	}
	return n
}

// release is invoked in engine context when a release arrives.
func (m *lockManager) release(origin int, excl bool) {
	if m.dead {
		// Dead-mode holds are all shared-counted regardless of the mode
		// they were requested with; tolerate imbalance rather than
		// panicking over a corpse's bookkeeping.
		if m.shared > 0 {
			m.shared--
		}
		return
	}
	if excl {
		if !m.exclusive {
			panic("mpi: exclusive release without exclusive hold")
		}
		m.exclusive = false
	} else {
		if m.shared <= 0 {
			panic("mpi: shared release without shared hold")
		}
		m.shared--
	}
	// Admit from the queue head while compatible.
	for len(m.waiting()) > 0 {
		head := m.queue[m.head]
		if head.excl {
			if m.exclusive || m.shared > 0 {
				break
			}
		} else if m.exclusive {
			break
		}
		m.admit(m.pop())
	}
}

// Held reports the current hold state, for tests.
func (m *lockManager) held() (shared int, exclusive bool) {
	return m.shared, m.exclusive
}

package sim

import "fmt"

// SetShadowOracle makes every engine built from now on pop the heap in
// lockstep behind its ladder and panic on the first pop that differs (see
// schedQ.shadow). It returns the function that restores the previous
// setting. Engines read the switch when they are built, so a test sets it
// before the worlds it wants checked and must not run beside tests that
// build engines in parallel.
func SetShadowOracle() (restore func()) {
	prev := shadowOracle
	shadowOracle = checkShadow
	return func() { shadowOracle = prev }
}

// checkShadow pops the ladder behind a heap pop and panics unless both
// structures agreed on the minimum before it and on the event removed.
func checkShadow(q *schedQ, want evKey) {
	min := q.lad.minKey()
	ev := q.lad.pop()
	if got := (evKey{at: ev.at, seq: ev.seq}); min != want || got != want {
		lo, hi := q.lad.activeSpan()
		panic(fmt.Sprintf("sim: ladder out of (at, seq) order: minimum (%d, seq %d), popped (%d, seq %d), heap popped (%d, seq %d); active span [%d, %d), %d pending",
			min.at, min.seq, got.at, got.seq, want.at, want.seq, lo, hi, q.n))
	}
}

// The by-value pops of the lockstep tests; the engine pops through popInto.

func (l *ladder) pop() (ev event) {
	l.popInto(&ev)
	return ev
}

func (h *eventHeap) pop() (ev event) {
	h.popInto(&ev)
	return ev
}

func (q *schedQ) pop() (ev event) {
	q.popInto(&ev)
	return ev
}

package sim

import "fmt"

// SetShadowOracle makes every engine built from now on pop a heap in
// lockstep behind its ladder and panic on the first pop that differs (see
// schedQ.shadow, eventHeap.popped). It returns the function that restores the
// previous setting. Engines read the switch when they are built, so a test
// sets it before the worlds it wants checked and must not run beside tests
// that build engines in parallel.
func SetShadowOracle() (restore func()) {
	prev := newShadow
	newShadow = func(e *Engine) shadowQueue {
		h := &countingShadow{eng: e}
		shadowed = append(shadowed, h)
		return h
	}
	return func() {
		newShadow = prev
		TakeShadowShortfalls()
	}
}

// countingShadow is the shadow oracle's heap, counting the pops it checked
// for the engine it shadows.
type countingShadow struct {
	eventHeap
	eng  *Engine
	pops int64
}

func (h *countingShadow) popped(q *schedQ, k evKey) {
	h.pops++
	h.eventHeap.popped(q, k)
}

// shadowed lists the shadows built since the last TakeShadowShortfalls.
var shadowed []*countingShadow

// TakeShadowShortfalls reports on every engine built under SetShadowOracle
// since its last call, and forgets them: how many there were, and a line
// for each whose shadow checked fewer pops than the engine executed events
// — an event that reached the clock without passing through the ladder.
// (A pop may exceed the count: a discarded background event is popped but
// not executed.) Call it once the engines' runs are over.
func TakeShadowShortfalls() (engines int, short []string) {
	list := shadowed
	shadowed = nil
	for i, h := range list {
		if n := h.eng.EventsExecuted(); h.pops < n {
			short = append(short, fmt.Sprintf("engine %d: the shadow checked %d pops, the engine executed %d events", i, h.pops, n))
		}
	}
	return len(list), short
}

// The by-value pops of the lockstep tests; the engine pops through popInto.

func (l *ladder) pop() (ev event) {
	l.popInto(&ev)
	return ev
}

func (q *schedQ) pop() (ev event) {
	q.popInto(&ev)
	return ev
}

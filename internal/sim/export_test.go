package sim

// SetShadowOracle makes every engine built from now on pop a heap in
// lockstep behind its ladder and panic on the first pop that differs (see
// schedQ.shadow, eventHeap.popped). It returns the function that restores the
// previous setting. Engines read the switch when they are built, so a test
// sets it before the worlds it wants checked and must not run beside tests
// that build engines in parallel.
func SetShadowOracle() (restore func()) {
	prev := newShadow
	newShadow = func() shadowQueue { return new(eventHeap) }
	return func() { newShadow = prev }
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

package mpi

// TimerCensus is what became of a fault-plan world's retransmission
// timers, for the external tests that drive the transport from a Casper
// world (package core imports this one, so they live in package mpi_test).
type TimerCensus struct {
	Armed   int64 // timers started
	Fired   int64 // timer events that ran
	NoOp    int64 // of those, the ones that found their packet already settled
	Dropped int64 // chained timers dropped at promotion, never scheduled
}

// TimerCensus reads the world's timer counters; zero without a fault plan.
func (w *World) TimerCensus() TimerCensus {
	if w.rel == nil {
		return TimerCensus{}
	}
	c := w.rel.timers
	return TimerCensus{Armed: c.armed, Fired: c.fired, NoOp: c.noop, Dropped: c.dropped}
}

package mpi

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

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

// FaultStats and P2PLost expose the world state behind the world-level
// counter rows, so the external summary test can aggregate them itself.
func (w *World) FaultStats() fault.Stats { return w.faultStats() }

func (w *World) P2PLost() int64 { return w.p2pLost }

// CreditStorm runs the flow-control storm of flow_test.go on four ranks
// of one node, each origin firing ops accumulates at the busy rank 0.
func CreditStorm(t *testing.T, flow *FlowConfig, ops int) *World {
	cfg := testConfig(4, 4)
	cfg.Flow = flow
	w, _ := creditStorm(t, cfg, ops)
	return w
}

// The observers below read state only this package's tests check.

// RegionOf returns the exposed region of any comm rank of the window.
func (w *Win) RegionOf(commRank int) Region { return w.g.regions[commRank] }

// Offset returns the region's byte offset within its backing segment.
func (r Region) Offset() int { return r.off }

// Len returns the region size in bytes.
func (r Region) Len() int { return r.n }

// SameSegment reports whether two regions alias the same backing
// segment.
func (r Region) SameSegment(o Region) bool { return r.seg == o.seg }

// FailedCount returns the number of ranks that have crashed.
func (w *World) FailedCount() int { return w.failedCount }

// HealthSuspected reports whether the rank is in the detector's suspect
// phase: silent past half the grace period but not yet confirmed dead.
func (w *World) HealthSuspected(worldRank int) bool {
	return w.health != nil && w.health.suspected[worldRank]
}

// LoadDepth returns the number of software AMs submitted to this rank's
// service pipeline and not yet serviced.
func (r *Rank) LoadDepth() int { return r.engine.depth }

// PoolOutstanding returns the number of message-path buffers handed out
// by the world's buffer pool and not yet returned.
func (w *World) PoolOutstanding() int64 { return w.pool.Outstanding() }

// EventsEager returns the events the world's engine executed plus the
// acks it elided (see World.acksElided): what the eager schedule
// (NoSimFastPath) executes for the same run.
func (w *World) EventsEager() int64 { return w.eng.EventsExecuted() + w.acksElided }

// DeferredAck reads the acks deferred on the handle's channel to target:
// how many, and when the latest of them is due (zero and nil-channel safe).
// Read it from a settled process (after Rank.Now).
func (w *Win) DeferredAck(target int) (n int, at sim.Time) {
	if ch := w.lookupChannel(target); ch != nil {
		return int(ch.lazyN), ch.lazyAt
	}
	return 0, 0
}

// Dup duplicates the communicator (MPI_COMM_DUP).
func (c *Comm) Dup() *Comm {
	res := c.collective("MPI_Comm_dup", nil, c.barrierCost(),
		func([]interface{}) interface{} {
			return c.g.w.newCommGlobal(c.g.ranks)
		})
	ng := res.(*commGlobal)
	return &Comm{g: ng, me: c.me, r: c.r}
}

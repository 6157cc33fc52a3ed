package mpi

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Counter indexes the counter table: every activity counter of a
// simulated world — MPI progress, reliability, flow control, recovery,
// and the Casper runtime layered on top — is one row. A rank's counters
// (Rank.Stats) and a world's totals (WorldSummary) are both Counters,
// arrays over the table, so adding a counter is one constant below and
// one row in counterTable.
type Counter int

// The rows, in table order. Unless noted, a row accrues on the acting
// rank and a world's value is the sum over its ranks.
const (
	OpsIssued    Counter = iota // RMA ops issued from this rank
	SoftwareAMs                 // software RMA ops processed at this rank
	HardwareOps                 // hardware RMA ops applied at this rank
	Interrupts                  // interrupts raised (ProgressInterrupt; Fig. 4(c))
	StolenTime                  // compute stolen by interrupts or an oversubscribed progress thread
	MessagesSent                // point-to-point messages sent
	BytesIn                     // RMA payload bytes received

	// Reliability (zero without a fault plan).
	Retransmits    // packets retransmitted after a loss
	RetryTimeouts  // retransmission timeouts that took action
	DupsSuppressed // duplicate packets discarded at this rank
	Reroutes       // ops failed over to a replacement target
	Abandoned      // ops given up on (the transport then panics)
	CorruptDropped // packets dropped at this rank as corrupted on the wire

	// Flow control (zero without a FlowConfig, except the peaks).
	CreditStalls       // issues that had to wait for a credit
	CreditStallTime    // virtual time spent waiting for credits
	PeakDepth          // high-water mark of the rank's AM pipeline; max over ranks
	PeakQueueResidency // high-water mark of events pending in the rank's engine; max over ranks

	// Recovery (zero unless the failure detector acted). Suspects,
	// FalseSuspects and LocksReclaimed accrue on the rank the detector
	// watches; the rest on the rank performing the recovery.
	Suspects       // times this rank entered the suspect phase
	FalseSuspects  // suspicions cleared by resumed beacons (stalls)
	LocksReclaimed // lock holds/waiters reclaimed from this rank's managers after death
	EpochRelocks   // mid-epoch lock-set re-opens onto surviving progress ranks
	Successions    // sequencer takeovers
	CmdResends     // logged commands retransmitted by a successor
	Rebinds        // bound targets failed over to a surviving ghost

	// App-rank recovery (zero unless the plan schedules AppCrashes).
	// AppRecoveries accrues on the recovered rank, the rest on the ghost
	// taking the snapshot or replaying.
	AppRecoveries  // recoverable crashes this rank came back from
	SnapshotsTaken // epoch-close snapshots shipped to a buddy ghost
	SnapshotBytes  // bytes of window state shipped to buddy ghosts
	ReplayedOps    // journaled RMA ops replayed during a restore

	// Casper redirection, on the user process issuing the operation.
	Redirected // operations redirected to ghosts
	Split      // extra pieces created by segment splitting
	Dynamic    // operations routed by dynamic load balancing
	SelfLocal  // self put/get completed through shared memory
	Degraded   // routing decisions that fell back to target-side progress

	// Casper overload rebalancer, on the process that hosts it.
	Migrations   // bindings moved to a colder ghost
	DeferredBusy // migrations staged pending: the target had ops in flight
	DeferredLock // migrations deferred: the target was inside a lock epoch
	Saturations  // node degradations to target-side progress
	Restores     // degraded nodes restored to ghost progress

	// World-level rows: Summary reads them from world state; they stay
	// zero in a rank's counters.
	FaultDrops    // transmissions the fault injector dropped
	FaultDelays   // transmissions it delayed
	FaultDups     // transmissions it duplicated
	FaultCorrupts // transmissions it corrupted
	RanksFailed   // ranks that crashed
	P2PLost       // point-to-point messages lost to a dead peer

	NumCounters
)

type unit uint8

const (
	unitCount unit = iota + 1
	unitBytes
	unitNS
)

type aggregation uint8

const (
	aggSum aggregation = iota + 1
	aggMax
	aggWorld // read from world state by Summary
)

type counterRow struct {
	name  string
	unit  unit
	agg   aggregation
	world func(*World) int64 // aggWorld rows only
}

// counterTable is the one list of counters: their names, units and how
// a world aggregates them.
var counterTable = [NumCounters]counterRow{
	OpsIssued:    {"ops_issued", unitCount, aggSum, nil},
	SoftwareAMs:  {"software_ams", unitCount, aggSum, nil},
	HardwareOps:  {"hardware_ops", unitCount, aggSum, nil},
	Interrupts:   {"interrupts", unitCount, aggSum, nil},
	StolenTime:   {"stolen_time", unitNS, aggSum, nil},
	MessagesSent: {"messages_sent", unitCount, aggSum, nil},
	BytesIn:      {"bytes_in", unitBytes, aggSum, nil},

	Retransmits:    {"retransmits", unitCount, aggSum, nil},
	RetryTimeouts:  {"retry_timeouts", unitCount, aggSum, nil},
	DupsSuppressed: {"dups_suppressed", unitCount, aggSum, nil},
	Reroutes:       {"reroutes", unitCount, aggSum, nil},
	Abandoned:      {"abandoned", unitCount, aggSum, nil},
	CorruptDropped: {"corrupt_dropped", unitCount, aggSum, nil},

	CreditStalls:       {"credit_stalls", unitCount, aggSum, nil},
	CreditStallTime:    {"credit_stall_time", unitNS, aggSum, nil},
	PeakDepth:          {"peak_depth", unitCount, aggMax, nil},
	PeakQueueResidency: {"peak_queue_residency", unitCount, aggMax, nil},

	Suspects:       {"suspects", unitCount, aggSum, nil},
	FalseSuspects:  {"false_suspects", unitCount, aggSum, nil},
	LocksReclaimed: {"locks_reclaimed", unitCount, aggSum, nil},
	EpochRelocks:   {"epoch_relocks", unitCount, aggSum, nil},
	Successions:    {"successions", unitCount, aggSum, nil},
	CmdResends:     {"cmd_resends", unitCount, aggSum, nil},
	Rebinds:        {"rebinds", unitCount, aggSum, nil},

	AppRecoveries:  {"app_recoveries", unitCount, aggSum, nil},
	SnapshotsTaken: {"snapshots_taken", unitCount, aggSum, nil},
	SnapshotBytes:  {"snapshot_bytes", unitBytes, aggSum, nil},
	ReplayedOps:    {"replayed_ops", unitCount, aggSum, nil},

	Redirected: {"redirected", unitCount, aggSum, nil},
	Split:      {"split", unitCount, aggSum, nil},
	Dynamic:    {"dynamic", unitCount, aggSum, nil},
	SelfLocal:  {"self_local", unitCount, aggSum, nil},
	Degraded:   {"degraded", unitCount, aggSum, nil},

	Migrations:   {"migrations", unitCount, aggSum, nil},
	DeferredBusy: {"deferred_busy", unitCount, aggSum, nil},
	DeferredLock: {"deferred_lock", unitCount, aggSum, nil},
	Saturations:  {"saturations", unitCount, aggSum, nil},
	Restores:     {"restores", unitCount, aggSum, nil},

	FaultDrops:    {"fault_drops", unitCount, aggWorld, func(w *World) int64 { return w.faultStats().Drops }},
	FaultDelays:   {"fault_delays", unitCount, aggWorld, func(w *World) int64 { return w.faultStats().Delays }},
	FaultDups:     {"fault_dups", unitCount, aggWorld, func(w *World) int64 { return w.faultStats().Dups }},
	FaultCorrupts: {"fault_corrupts", unitCount, aggWorld, func(w *World) int64 { return w.faultStats().Corrupts }},
	RanksFailed:   {"ranks_failed", unitCount, aggWorld, func(w *World) int64 { return int64(w.failedCount) }},
	P2PLost:       {"p2p_lost", unitCount, aggWorld, func(w *World) int64 { return w.p2pLost }},
}

// String returns the counter's snake_case name.
func (c Counter) String() string { return counterTable[c].name }

// Counters holds one value per counter table row.
type Counters [NumCounters]int64

// Add folds o into c row by row: max rows keep the larger value, every
// other row sums.
func (c *Counters) Add(o Counters) {
	for i, v := range o {
		if counterTable[i].agg == aggMax {
			c[i] = max(c[i], v)
		} else {
			c[i] += v
		}
	}
}

// WorldSummary aggregates the counters of a finished (or running) world.
type WorldSummary struct {
	Ranks    int
	EndTime  sim.Time
	Counters Counters
}

// Summary aggregates every rank's counters and fills the world-level rows.
func (w *World) Summary() WorldSummary {
	s := WorldSummary{Ranks: len(w.ranks), EndTime: w.eng.Now()}
	for _, r := range w.ranks {
		s.Counters.Add(r.Stats())
	}
	for c, row := range &counterTable {
		if row.agg == aggWorld {
			s.Counters[c] = row.world(w)
		}
	}
	return s
}

func (w *World) faultStats() fault.Stats {
	if w.inj == nil {
		return fault.Stats{}
	}
	return w.inj.Stats()
}

// String prints the rank count, the end time and name=value for every
// nonzero row, in table order.
func (s WorldSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranks=%d end=%v", s.Ranks, s.EndTime)
	for c, v := range s.Counters {
		switch {
		case v == 0:
		case counterTable[c].unit == unitNS:
			fmt.Fprintf(&b, " %v=%v", Counter(c), sim.Duration(v))
		default:
			fmt.Fprintf(&b, " %v=%d", Counter(c), v)
		}
	}
	return b.String()
}

// Count adds n to this rank's counter c.
func (r *Rank) Count(c Counter, n int64) { r.stats[c] += n }

// Count adds n to counter c of world rank worldRank: how a layered
// runtime credits an action to the rank that performed it.
func (w *World) Count(worldRank int, c Counter, n int64) { w.ranks[worldRank].Count(c, n) }

// Stats returns a copy of this rank's counters.
func (r *Rank) Stats() Counters {
	st := r.stats
	st[PeakQueueResidency] = int64(r.eng.PeakQueueResidency())
	return st
}

// BusiestRank returns the world rank that serviced the most software
// AMs and its count — useful for spotting ghost load imbalance.
func (w *World) BusiestRank() (rank int, ams int64) {
	for i, r := range w.ranks {
		if n := r.stats[SoftwareAMs]; n > ams {
			rank, ams = i, n
		}
	}
	return rank, ams
}

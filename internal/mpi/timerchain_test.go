package mpi_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The world of the timer-chain differential: 2 nodes x (2 users + 2
// ghosts). Users are world ranks 0,1,4,5; ghosts 2,3 and 6,7.
const (
	tcUsers  = 4
	tcGhosts = 2
	tcPPN    = tcUsers/2 + tcGhosts
	tcN      = 2 * tcPPN
)

// tcRun is one run of the differential's workload: lock epochs over
// rotating targets with commutative accumulates, a dwell long enough for
// the failure detector to confirm a crashed ghost mid-epoch, and a lockall
// burst that puts a few dozen packets — and their timers — in flight at
// once.
type tcRun struct {
	tables  [][]byte   // per user: its settled window
	ends    []sim.Time // per user: when its program finished
	summary mpi.WorldSummary
	verdict []string // the validator's violations
	events  int64
	census  mpi.TimerCensus
}

func timerChainRun(t *testing.T, seed int64, plan fault.Plan, eager bool) tcRun {
	t.Helper()
	plan.Seed = seed
	cfg := mpi.Config{
		Machine:       cluster.Machine{Nodes: 2, CoresPerNode: 24, NUMAPerNode: 2},
		N:             tcN,
		PPN:           tcPPN,
		Net:           netmodel.CrayXC30(),
		Seed:          seed,
		Validate:      true,
		Fault:         &plan,
		NoSimFastPath: eager,
	}
	run := tcRun{tables: make([][]byte, tcUsers), ends: make([]sim.Time, tcUsers)}
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		p, ghost := core.Init(r, core.Config{NumGhosts: tcGhosts})
		if ghost {
			return
		}
		c := p.CommWorld()
		n := c.Size()
		const words, iters = 4, 5
		win, local := p.WinAllocate(c, 8*words, mpi.Info{})
		c.Barrier()
		for it := 0; it < iters; it++ {
			tgt := (c.Rank() + it + 1) % n
			win.Lock(tgt, mpi.LockShared, mpi.AssertNone)
			for wd := 0; wd < words; wd++ {
				v := int64(c.Rank()*1000 + it*10 + wd)
				win.Accumulate(mpi.PutInt64(v), tgt, wd*8, mpi.Scalar(mpi.Int64), mpi.OpSum)
			}
			win.Flush(tgt)
			if it == 0 {
				p.Compute(250 * sim.Microsecond)
				win.Accumulate(mpi.PutInt64(int64(c.Rank()+1)), tgt, 0, mpi.Scalar(mpi.Int64), mpi.OpSum)
			}
			win.Unlock(tgt)
		}
		win.LockAll(mpi.AssertNone)
		for i := 0; i < 12; i++ {
			for tgt := 0; tgt < n; tgt++ {
				win.Accumulate(mpi.PutInt64(int64(i+1)), tgt, (i%words)*8, mpi.Scalar(mpi.Int64), mpi.OpSum)
			}
		}
		win.UnlockAll()
		c.Barrier()
		run.tables[c.Rank()] = append([]byte(nil), local...)
		win.Free()
		p.Finalize()
		run.ends[c.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatalf("seed %d eager=%v: %v", seed, eager, err)
	}
	run.summary = w.Summary()
	run.summary.PeakQueueResidency = 0 // scheduler occupancy: what the chain reduces
	run.verdict = w.Validator().Violations()
	run.events = w.Engine().EventsExecuted()
	run.census = w.TimerCensus()
	return run
}

// TestRetransmitTimersMatchEagerSchedule holds the timer chain against the
// schedule it replaces. A world with the fast paths off arms every
// retransmission timer as its own engine event; the default world chains
// the first-attempt ones and never schedules those whose packet has
// settled by promotion. Both must produce the same world: every rank
// finishes at the same instant, the same counters, the same memory, the
// same validator verdict. The censuses must add up: the same timers armed,
// the same timers that did something, and an event count lower by exactly
// the no-op timers the chain never scheduled.
func TestRetransmitTimersMatchEagerSchedule(t *testing.T) {
	lossy := fault.Plan{DropRate: 0.25, DupRate: 0.1, DelayRate: 0.2,
		DelayMax: 30 * sim.Microsecond, CorruptRate: 0.05}
	crash := fault.Plan{DropRate: 0.02, Crashes: []fault.Crash{
		{Rank: tcUsers/2 + 1, At: sim.Time(60 * sim.Microsecond)}, // ghost 3, mid-dwell
	}}
	for _, tc := range []struct {
		name string
		plan fault.Plan
	}{{"zero-rate", fault.Plan{}}, {"lossy", lossy}, {"ghost-crash", crash}} {
		t.Run(tc.name, func(t *testing.T) {
			var armed, dropped, saved, retransmits, reroutes int64
			for seed := int64(1); seed <= 16; seed++ {
				chain := timerChainRun(t, seed, tc.plan, false)
				eager := timerChainRun(t, seed, tc.plan, true)
				at := fmt.Sprintf("seed %d", seed)
				if !reflect.DeepEqual(chain.ends, eager.ends) {
					t.Fatalf("%s: end times differ:\nchain %v\neager %v", at, chain.ends, eager.ends)
				}
				if chain.summary != eager.summary {
					t.Fatalf("%s: summaries differ:\nchain %+v\neager %+v", at, chain.summary, eager.summary)
				}
				for r := range chain.tables {
					if !bytes.Equal(chain.tables[r], eager.tables[r]) {
						t.Fatalf("%s: rank %d's window differs", at, r)
					}
				}
				if !reflect.DeepEqual(chain.verdict, eager.verdict) {
					t.Fatalf("%s: validator verdicts differ:\nchain %q\neager %q", at, chain.verdict, eager.verdict)
				}
				cc, ec := chain.census, eager.census
				if ec.Dropped != 0 {
					t.Fatalf("%s: the eager schedule dropped %d timers", at, ec.Dropped)
				}
				if cc.Armed != ec.Armed {
					t.Fatalf("%s: armed %d timers chained, %d eager", at, cc.Armed, ec.Armed)
				}
				if cc.Fired-cc.NoOp != ec.Fired-ec.NoOp {
					t.Fatalf("%s: %d timers acted chained, %d eager", at, cc.Fired-cc.NoOp, ec.Fired-ec.NoOp)
				}
				// Every event the chained world did not run is a timer the
				// eager one ran as a no-op; a dropped timer whose deadline
				// fell after the last process finished ran in neither.
				fewer := eager.events - chain.events
				if fewer != ec.NoOp-cc.NoOp || fewer > cc.Dropped {
					t.Fatalf("%s: %d fewer events, %d fewer no-op timers, %d dropped", at, fewer, ec.NoOp-cc.NoOp, cc.Dropped)
				}
				if cc.Armed < cc.Fired+cc.Dropped {
					t.Fatalf("%s: census %+v: more timers fired and dropped than armed", at, cc)
				}
				armed, dropped, saved = armed+cc.Armed, dropped+cc.Dropped, saved+fewer
				retransmits += chain.summary.Retransmits
				reroutes += chain.summary.Reroutes
			}
			t.Logf("16 seeds: %d timers armed, %d dropped at promotion, %d events fewer than eager, %d retransmits, %d reroutes",
				armed, dropped, saved, retransmits, reroutes)
			if dropped == 0 {
				t.Fatal("no timer was ever dropped at promotion: the comparison is vacuous")
			}
			if tc.name == "lossy" && retransmits == 0 {
				t.Fatal("the lossy plan never caused a retransmission")
			}
			if tc.name == "ghost-crash" && reroutes == 0 {
				t.Fatal("the crashed ghost's packets never failed over")
			}
		})
	}
}

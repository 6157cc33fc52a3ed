package mpi_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// lazyOutcome is what TestLazyAcksMatchEager compares of one run: when
// each rank finished, its window bytes and the results it read, the world
// summary, and the events with the acks the served run elided counted
// back in (mpi.World.EventsEager); under a fault plan also the
// retransmission timers' census and the validator's verdict.
type lazyOutcome struct {
	ends    []sim.Time
	mem     [][]byte
	reads   [][]byte
	summary mpi.WorldSummary
	events  int64
	elided  int64 // acks that were no event of their own
	census  mpi.TimerCensus
	verdict []string
}

// lazyProgram is one case's rank body; it records into o, indexed by
// world rank.
type lazyProgram func(r *mpi.Rank, o *lazyOutcome)

func lazyConfig(nodes, ppn int) mpi.Config {
	return mpi.Config{
		Machine: cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:       nodes * ppn,
		PPN:     ppn,
		Net:     netmodel.CrayXC30(),
		Seed:    3,
	}
}

func lazyRun(t *testing.T, cfg mpi.Config, eager bool, main lazyProgram) lazyOutcome {
	t.Helper()
	cfg.NoSimFastPath = eager
	o := lazyOutcome{ends: make([]sim.Time, cfg.N), mem: make([][]byte, cfg.N), reads: make([][]byte, cfg.N)}
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		main(r, &o)
		o.ends[r.Rank()] = r.Now()
	})
	if err != nil {
		t.Fatalf("eager=%v: %v", eager, err)
	}
	o.summary = w.Summary()
	o.summary.Counters[mpi.PeakQueueResidency] = 0 // scheduler occupancy: what the fast paths change
	o.events = w.EventsEager()
	o.elided = o.events - w.Engine().EventsExecuted()
	o.census = w.TimerCensus()
	if v := w.Validator(); v != nil {
		o.verdict = v.Violations()
	}
	w.Close()
	return o
}

// lazyMatch runs main served and on the eager schedule (NoSimFastPath),
// requires the same world of both, and returns the served outcome.
func lazyMatch(t *testing.T, cfg mpi.Config, main lazyProgram) lazyOutcome {
	t.Helper()
	served := lazyRun(t, cfg, false, main)
	eager := lazyRun(t, cfg, true, main)
	if eager.elided != 0 {
		t.Fatalf("the eager schedule elided %d acks", eager.elided)
	}
	if !reflect.DeepEqual(served.ends, eager.ends) {
		t.Fatalf("end times differ:\nserved %v\neager  %v", served.ends, eager.ends)
	}
	if served.summary != eager.summary {
		t.Fatalf("summaries differ:\nserved %+v\neager  %+v", served.summary, eager.summary)
	}
	for i := range served.mem {
		if !bytes.Equal(served.mem[i], eager.mem[i]) || !bytes.Equal(served.reads[i], eager.reads[i]) {
			t.Fatalf("rank %d: bytes differ:\nserved %v %v\neager  %v %v", i,
				served.mem[i], served.reads[i], eager.mem[i], eager.reads[i])
		}
	}
	if !reflect.DeepEqual(served.verdict, eager.verdict) {
		t.Fatalf("validator verdicts differ:\nserved %q\neager  %q", served.verdict, eager.verdict)
	}
	// Under a fault plan the served world chains its first-attempt
	// retransmission timers and never schedules those whose packet settled
	// first (see TestRetransmitTimersMatchEagerSchedule): the same timers
	// armed and acting, and the events fewer by exactly the no-op ones.
	sc, ec := served.census, eager.census
	if sc.Armed != ec.Armed || sc.Fired-sc.NoOp != ec.Fired-ec.NoOp {
		t.Fatalf("timer censuses differ: served %+v, eager %+v", sc, ec)
	}
	if fewer := eager.events - served.events; fewer != ec.NoOp-sc.NoOp {
		t.Fatalf("events differ: served %d (%d elided acks included), eager %d, %d fewer no-op timers",
			served.events, served.elided, eager.events, ec.NoOp-sc.NoOp)
	}
	return served
}

var lazyOne = mpi.PutFloat64s([]float64{1})

// TestLazyAcksMatchEager holds the deferred acks of the plain wire
// (rmaOp.ack) to the eager schedule, where every ack is its own event, in
// the cases where a drain meets them: a flush at the very instant the
// latest deferred ack is due, with its seq on either side of the ack's; a
// FlushAll over channels whose acks have landed and channels whose acks
// have not; a Get read after its flush; a fence epoch's acks drained by a
// later lock epoch on the same channel; and a Casper flush, which drains
// every ghost of the target's node; a channel holding deferred acks and
// acks in flight at once; and random mixes of all of these.
// Every case must leave the same world
// — end times, window bytes, read results, counters — and pop the same
// events once the elided acks are counted back in.
func TestLazyAcksMatchEager(t *testing.T) {
	t.Run("flush at the ack instant", func(t *testing.T) {
		// Rank 0 issues one op to rank 1 and computes until its flush, one
		// call entry later, drains at exactly the instant the ack is due.
		// The drain's event took its seq when the flush was entered, which
		// a call entry cost of 2 us puts before the apply reserved the
		// ack's seq when the ack crosses faster than that (a scalar
		// accumulate), and after it when the ack carries a long result (a
		// 64 KiB get). The first ack still pops after the drain, so the
		// channel is scheduled; the second has landed.
		const size = 64 << 10
		cfg := lazyConfig(1, 2)
		cfg.Net.CallOverhead = 2 * sim.Microsecond
		call := cfg.Net.CallOverhead
		got := map[int64]bool{}
		for _, get := range []bool{false, true} {
			issue := func(win *mpi.Win, dst []byte) {
				if get {
					win.Get(dst, 1, 0, mpi.TypeOf(mpi.Byte, size))
				} else {
					win.Accumulate(lazyOne, 1, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
			}
			// The first run reads when the ack is due (due zero), the
			// served and eager runs then flush right there.
			var due sim.Time
			program := func(r *mpi.Rank, o *lazyOutcome) {
				c := r.CommWorld()
				win, mem := r.WinAllocateRegion(c, size)
				c.Barrier()
				if r.Rank() == 0 {
					dst := make([]byte, size)
					win.Lock(1, mpi.LockShared, mpi.AssertNone)
					issue(win, dst)
					if due == 0 {
						r.Compute(200 * sim.Microsecond)
						r.Now()
						_, due = win.DeferredAck(1)
					} else {
						r.Compute(due.Sub(r.Now()) - call)
						win.Flush(1)
						if now := r.Now(); now != due {
							t.Errorf("get=%v: the flush returned at %v, the ack is due at %v", get, now, due)
						}
					}
					win.Unlock(1)
					o.reads[0] = dst
				}
				c.Barrier()
				o.mem[r.Rank()] = append([]byte(nil), mem...)
				win.Free()
			}
			if lazyRun(t, cfg, false, program); due == 0 {
				t.Fatalf("get=%v: no ack deferred", get)
			}
			got[lazyMatch(t, cfg, program).elided] = true
		}
		if !got[0] || !got[1] {
			t.Fatalf("elided acks per case %v: want one case scheduled (0) and one landed (1)", got)
		}
	})

	t.Run("FlushAll over landed and pending channels", func(t *testing.T) {
		// Rank 0 accumulates to a rank on its node and to two on the other,
		// then flushes all just after the near ack is due: that channel's
		// ack has landed, the far ones' are scheduled.
		cfg := lazyConfig(2, 2)
		call := cfg.Net.CallOverhead
		var near sim.Time
		program := func(r *mpi.Rank, o *lazyOutcome) {
			c := r.CommWorld()
			win, mem := r.WinAllocateRegion(c, 64)
			c.Barrier()
			if r.Rank() == 0 {
				win.LockAll(mpi.AssertNone)
				for _, tgt := range []int{1, 2, 3} {
					win.Accumulate(lazyOne, tgt, 8, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				if near == 0 {
					r.Compute(200 * sim.Microsecond)
					r.Now()
					_, near = win.DeferredAck(1)
					_, far := win.DeferredAck(2)
					if far <= near.Add(call) {
						t.Fatalf("near ack due at %v, far at %v: no gap to flush in", near, far)
					}
				} else {
					r.Compute(near.Sub(r.Now()))
					win.FlushAll()
				}
				win.UnlockAll()
			}
			c.Barrier()
			o.mem[r.Rank()] = append([]byte(nil), mem...)
			win.Free()
		}
		lazyRun(t, cfg, false, program)
		if s := lazyMatch(t, cfg, program); s.elided != 1 {
			t.Fatalf("%d acks elided, want the near channel's alone", s.elided)
		}
	})

	t.Run("Get read after the flush", func(t *testing.T) {
		program := func(r *mpi.Rank, o *lazyOutcome) {
			c := r.CommWorld()
			win, mem := r.WinAllocateRegion(c, 64)
			copy(mem, mpi.PutFloat64s([]float64{float64(r.Rank() + 10)}))
			c.Barrier()
			if r.Rank() == 0 {
				dst := make([]byte, 8)
				win.LockAll(mpi.AssertNone)
				for tgt := 1; tgt < c.Size(); tgt++ {
					win.Accumulate(lazyOne, tgt, 8, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				win.Get(dst, 3, 0, mpi.Scalar(mpi.Float64))
				win.Flush(3)
				o.reads[0] = append([]byte(nil), dst...)
				win.UnlockAll()
			}
			c.Barrier()
			o.mem[r.Rank()] = append([]byte(nil), mem...)
			win.Free()
		}
		s := lazyMatch(t, lazyConfig(2, 2), program)
		if got := mpi.GetFloat64s(s.reads[0]); got[0] != 13 {
			t.Fatalf("the get read %v, want 13", got)
		}
		if s.elided == 0 {
			t.Fatal("no ack elided")
		}
	})

	t.Run("fence acks drained by a later lock epoch", func(t *testing.T) {
		// The fence waits for the ops to apply, not for their acks: those
		// stay deferred at the channel until the unlock of the lock epoch
		// that follows on it drains them with its own.
		program := func(r *mpi.Rank, o *lazyOutcome) {
			c := r.CommWorld()
			win, mem := r.WinAllocateRegion(c, 64)
			win.Fence(mpi.AssertNone)
			if r.Rank() == 0 {
				for i := 0; i < 4; i++ {
					win.Accumulate(lazyOne, 1, 8*i, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
			}
			win.Fence(mpi.AssertNone)
			if r.Rank() == 0 {
				if n, _ := win.DeferredAck(1); n == 0 && !r.Engine().FastPathsDisabled() {
					t.Errorf("no fence ack deferred at the channel after the fence")
				}
				win.Lock(1, mpi.LockExclusive, mpi.AssertNone)
				win.Accumulate(lazyOne, 1, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				win.Unlock(1)
			}
			c.Barrier()
			o.mem[r.Rank()] = append([]byte(nil), mem...)
			win.Free()
		}
		if s := lazyMatch(t, lazyConfig(2, 1), program); s.elided == 0 {
			t.Fatal("no ack elided")
		}
	})

	t.Run("Casper flush over several ghosts", func(t *testing.T) {
		if s := lazyMatch(t, lazyConfig(2, 4), lazyCasperFlushes); s.elided == 0 {
			t.Fatal("no ack elided")
		}
	})

	t.Run("observer installed mid-epoch", func(t *testing.T) {
		// An op observer makes acks eager from its installation on, so a
		// channel holds deferred acks and acks in flight at once; the
		// last eager ack to land settles the deferred ones for the flush
		// waiting on them.
		program := func(r *mpi.Rank, o *lazyOutcome) {
			c := r.CommWorld()
			win, mem := r.WinAllocateRegion(c, 64)
			c.Barrier()
			if r.Rank() == 0 {
				var observed int
				win.LockAll(mpi.AssertNone)
				for i := 0; i < 3; i++ {
					win.Accumulate(lazyOne, 1, 8*i, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				r.Compute(20 * sim.Microsecond)
				win.SetOpObserver(func(origin, target, disp int) { observed++ })
				for i := 0; i < 3; i++ {
					win.Accumulate(lazyOne, 1, 8*i, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				win.Flush(1)
				win.UnlockAll()
				r.Now() // settle: the observer runs where the calls do
				o.reads[0] = []byte{byte(observed)}
			}
			c.Barrier()
			o.mem[r.Rank()] = append([]byte(nil), mem...)
			win.Free()
		}
		s := lazyMatch(t, lazyConfig(2, 1), program)
		if s.elided != 3 || s.reads[0][0] != 3 {
			t.Fatalf("%d acks elided and %d observed, want 3 of each", s.elided, s.reads[0][0])
		}
	})

	t.Run("random op mixes", func(t *testing.T) {
		for seed := int64(1); seed <= 6; seed++ {
			if s := lazyMatch(t, lazyConfig(2, 2), lazyMix(seed)); s.elided == 0 {
				t.Fatalf("seed %d: no ack elided", seed)
			}
		}
	})

	t.Run("fault plans", func(t *testing.T) {
		// The random mixes and the Casper flushes under every plan of the
		// injector's: the transport's first acks that the injector leaves
		// alone are deferred like the plain wire's, the rest stay events,
		// and a channel drains both. A crashed ghost's streams fail over.
		for _, tc := range []struct {
			name   string
			plan   fault.Plan
			casper bool
		}{
			{"zero-rate", fault.Plan{}, false},
			{"drop", fault.Plan{DropRate: 0.2}, false},
			{"dup", fault.Plan{DupRate: 0.3}, false},
			{"delay", fault.Plan{DelayRate: 0.3, DelayMax: 30 * sim.Microsecond}, false},
			{"corrupt", fault.Plan{CorruptRate: 0.2}, false},
			{"ghost-crash", fault.Plan{DropRate: 0.02, Crashes: []fault.Crash{{Rank: 3, At: sim.Time(12 * sim.Microsecond)}}}, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				var elided, reroutes int64
				for seed := int64(1); seed <= 16; seed++ {
					cfg := lazyConfig(2, 2)
					program := lazyMix(seed)
					if tc.casper {
						cfg = lazyConfig(2, 4)
						program = lazyCasperFlushes
					}
					plan := tc.plan
					plan.Seed = seed
					cfg.Fault, cfg.Validate, cfg.Seed = &plan, true, seed
					s := lazyMatch(t, cfg, program)
					elided += s.elided
					reroutes += s.summary.Counters[mpi.Reroutes]
				}
				if elided == 0 {
					t.Fatal("no transport ack was deferred")
				}
				if tc.casper && reroutes == 0 {
					t.Fatal("the crashed ghost's packets never failed over")
				}
			})
		}
	})

	t.Run("duplicate between the apply and the ack's key", func(t *testing.T) {
		// A hardware put applies as it arrives, and a duplicated
		// transmission arrives a nanosecond behind it, long before the
		// deferred ack is due: the receiver must still find the op's
		// payload to check its checksum against, and the packet unacked, so
		// it re-acks as the eager schedule does. The payloads are longer
		// than the inline 16 bytes, so they live in pooled buffers.
		cfg := lazyConfig(2, 1)
		cfg.Net = netmodel.CrayXC30DMAPP()
		var dups, elided int64
		for seed := int64(1); seed <= 16; seed++ {
			cfg.Fault, cfg.Seed = &fault.Plan{Seed: seed, DupRate: 0.4}, seed
			s := lazyMatch(t, cfg, func(r *mpi.Rank, o *lazyOutcome) {
				c := r.CommWorld()
				win, mem := r.WinAllocateRegion(c, 1024)
				c.Barrier()
				if r.Rank() == 0 {
					win.Lock(1, mpi.LockShared, mpi.AssertNone)
					for i := 0; i < 16; i++ {
						v := make([]float64, 8)
						v[i%8] = float64(i + 1)
						win.Put(mpi.PutFloat64s(v), 1, 64*i, mpi.TypeOf(mpi.Float64, 8))
					}
					win.Unlock(1)
				}
				c.Barrier()
				o.mem[r.Rank()] = append([]byte(nil), mem...)
				win.Free()
			})
			dups += s.summary.Counters[mpi.DupsSuppressed]
			elided += s.elided
			if s.summary.Counters[mpi.HardwareOps] == 0 {
				t.Fatal("no put ran on the NIC")
			}
		}
		if dups == 0 || elided == 0 {
			t.Fatalf("%d duplicates suppressed, %d acks elided: the case is vacuous", dups, elided)
		}
	})

	t.Run("target killed while holding deferred acks", func(t *testing.T) {
		// Rank 0 accumulates to rank 1, gets 1 MiB from it and computes.
		// The get's ack carries the result, so it is due some 130 us after
		// the apply, and the transport's re-armed timer fires in between.
		// Rank 1 dies right after the apply: its deferred acks are released
		// as the crash releases its other lists, and the timer, finding the
		// target dead (unmonitored), completes the get by failover ahead of
		// its ack, as the eager schedule does.
		const size = 1 << 20
		cfg := lazyConfig(2, 1)
		cfg.Validate = true
		wire := cfg.Net.Transfer(false, false, size)
		var due sim.Time
		program := func(r *mpi.Rank, o *lazyOutcome) {
			c := r.CommWorld()
			win, mem := r.WinAllocateRegion(c, size)
			c.Barrier()
			if r.Rank() == 0 {
				dst := make([]byte, size)
				win.Lock(1, mpi.LockShared, mpi.AssertNone)
				for i := 0; i < 4; i++ {
					win.Accumulate(lazyOne, 1, 8*i, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				win.Get(dst, 1, 0, mpi.TypeOf(mpi.Byte, size))
				// Busy past the failover: no drain takes the acks home first.
				r.Compute(500 * sim.Microsecond)
				if due == 0 {
					r.Now()
					_, due = win.DeferredAck(1)
				}
				win.Unlock(1)
				o.reads[0] = dst[:64]
			}
			c.Barrier()
			o.mem[r.Rank()] = append([]byte(nil), mem[:64]...)
			win.Free()
		}
		cfg.Fault = &fault.Plan{Seed: 5}
		lazyRun(t, cfg, false, program)
		if due == 0 {
			t.Fatal("the get's ack was not deferred")
		}
		cfg.Fault = &fault.Plan{Seed: 5, Crashes: []fault.Crash{{Rank: 1, At: due - sim.Time(wire) + sim.Time(10*sim.Microsecond)}}}
		s := lazyMatch(t, cfg, program)
		if s.summary.Counters[mpi.RetryTimeouts] == 0 {
			t.Fatal("no timer found the target dead")
		}
		if got := mpi.GetFloat64s(s.reads[0][:8]); got[0] != 1 {
			t.Fatalf("the get read %v, want the accumulated 1", got)
		}
	})
}

// lazyMix is a random op mix of seed's: hardware puts beside gets of up to
// 64 KiB, whose acks carry the result and cross slowly, and software
// accumulates and get-accumulates: an ack deferred later is often due
// earlier, so a channel's latest key is not its newest op's. Flushes,
// flush-alls and computes land the drains anywhere among them.
func lazyMix(seed int64) lazyProgram {
	return func(r *mpi.Rank, o *lazyOutcome) {
		rng := rand.New(rand.NewSource(seed*100 + int64(r.Rank())))
		c := r.CommWorld()
		win, mem := r.WinAllocateRegion(c, 2048+64<<10)
		c.Barrier()
		var results [][]byte // read once the epoch is closed
		win.LockAll(mpi.AssertNone)
		for i := 0; i < 40; i++ {
			tgt := rng.Intn(c.Size())
			disp := 8 * rng.Intn(8)
			switch rng.Intn(7) {
			case 0:
				win.Put(mpi.PutFloat64s([]float64{float64(i)}), tgt, 64+disp, mpi.Scalar(mpi.Float64))
			case 1:
				win.Accumulate(lazyOne, tgt, disp, mpi.Scalar(mpi.Float64), mpi.OpSum)
			case 2:
				dst := make([]byte, 8*(1+rng.Intn(8<<10)))
				win.Get(dst, tgt, 2048, mpi.TypeOf(mpi.Byte, len(dst)))
				results = append(results, dst[:8])
			case 3:
				dst := make([]byte, 8)
				win.GetAccumulate(lazyOne, dst, tgt, disp, mpi.Scalar(mpi.Float64), mpi.OpSum)
				results = append(results, dst)
			case 4:
				r.Compute(sim.Duration(rng.Intn(4000)) * sim.Nanosecond)
			case 5:
				win.Flush(tgt)
			case 6:
				win.FlushAll()
			}
		}
		win.UnlockAll()
		for _, b := range results {
			o.reads[r.Rank()] = append(o.reads[r.Rank()], b...)
		}
		c.Barrier()
		o.mem[r.Rank()] = append([]byte(nil), mem...)
		win.Free()
	}
}

// lazyCasperFlushes runs on two users and two ghosts per node: a user's
// ops to a target are redirected over the ghosts of the target's node, and
// its flush drains every one of those channels.
func lazyCasperFlushes(r *mpi.Rank, o *lazyOutcome) {
	p, ghost := core.Init(r, core.Config{NumGhosts: 2})
	if ghost {
		return
	}
	c := p.CommWorld()
	win, mem := p.WinAllocate(c, 64, mpi.Info{})
	c.Barrier()
	win.LockAll(mpi.AssertNone)
	for i := 0; i < 8; i++ {
		tgt := (c.Rank() + 1 + i) % c.Size()
		win.Accumulate(lazyOne, tgt, 8*(i%8), mpi.Scalar(mpi.Float64), mpi.OpSum)
		if i%3 == 2 {
			p.Compute(sim.Duration(i) * sim.Microsecond)
			win.Flush(tgt)
		}
	}
	win.FlushAll()
	win.UnlockAll()
	c.Barrier()
	o.mem[r.Rank()] = append([]byte(nil), mem...)
	win.Free()
	p.Finalize()
}

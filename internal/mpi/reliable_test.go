package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// reliabilityWorkload mixes the traffic classes the reliable transport
// carries: RMA accumulates (exactly-once matters), a flush (acks
// matter), p2p messages (in-order delivery matters) and collectives.
// Every rank except 1 accumulates 20 ones into rank 1's window.
func reliabilityWorkload(r *Rank) {
	c := r.CommWorld()
	win, buf := r.WinAllocate(c, 64, nil)
	c.Barrier()
	win.LockAll(AssertNone)
	if r.Rank() != 1 {
		for i := 0; i < 20; i++ {
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
		}
		win.FlushAll()
	}
	win.UnlockAll()
	c.Barrier()
	if r.Rank() == 0 {
		c.Send(1, 9, []byte("ordered"))
		c.Send(1, 9, []byte("delivery"))
	} else if r.Rank() == 1 {
		if d, _ := c.Recv(0, 9); string(d) != "ordered" {
			panic("p2p message reordered: " + string(d))
		}
		if d, _ := c.Recv(0, 9); string(d) != "delivery" {
			panic("p2p message reordered: " + string(d))
		}
	}
	c.Barrier()
	if r.Rank() == 1 {
		if got := GetFloat64s(buf[:8])[0]; got != 60 {
			panic("accumulate total wrong")
		}
	}
}

func faultWorkloadConfig(plan *fault.Plan) Config {
	cfg := testConfig(4, 4)
	cfg.Fault = plan
	return cfg
}

// TestZeroRatePlanBitIdentical is the determinism regression: a world
// with an all-zero-rate fault plan must be bit-identical — same end
// time, same counters, all reliability counters zero — to a world with
// no fault layer at all.
func TestZeroRatePlanBitIdentical(t *testing.T) {
	base := mustRun(t, faultWorkloadConfig(nil), reliabilityWorkload).Summary()
	zero := mustRun(t, faultWorkloadConfig(&fault.Plan{Seed: 7}), reliabilityWorkload).Summary()
	// The reliability layer's timers occupy the event scheduler even at
	// zero rates; its occupancy gauge is the one field allowed to differ.
	base.PeakQueueResidency, zero.PeakQueueResidency = 0, 0
	if base != zero {
		t.Fatalf("zero-rate plan perturbed the world:\nbase: %v\nzero: %v", base, zero)
	}
	if zero.Retransmits|zero.FaultDrops|zero.DupsSuppressed|zero.Abandoned != 0 {
		t.Fatalf("zero-rate plan shows reliability activity: %v", zero)
	}
}

// TestDropsRecoveredExactlyOnce: under message drops the workload's
// value checks (exact accumulate total, in-order p2p) must still pass —
// retransmission with duplicate suppression gives exactly-once
// application of every operation.
func TestDropsRecoveredExactlyOnce(t *testing.T) {
	plan := &fault.Plan{Seed: 11, DropRate: 0.15}
	s := mustRun(t, faultWorkloadConfig(plan), reliabilityWorkload).Summary()
	if s.FaultDrops == 0 {
		t.Fatal("plan never dropped anything; rate too low for the traffic volume")
	}
	if s.Retransmits == 0 {
		t.Fatal("drops happened but nothing was retransmitted")
	}
	if s.Abandoned != 0 {
		t.Fatalf("%d operations abandoned under recoverable drops", s.Abandoned)
	}
}

// TestDupsSuppressed: duplicated transmissions must be detected and
// dropped at the receiver, keeping accumulates exactly-once.
func TestDupsSuppressed(t *testing.T) {
	plan := &fault.Plan{Seed: 5, DupRate: 0.3}
	s := mustRun(t, faultWorkloadConfig(plan), reliabilityWorkload).Summary()
	if s.FaultDups == 0 {
		t.Fatal("plan never duplicated anything")
	}
	if s.DupsSuppressed == 0 {
		t.Fatal("duplicates were injected but none suppressed")
	}
}

// TestDelaysReordered: delayed transmissions may overtake each other on
// the wire; sequence numbers must restore FIFO order per stream (the
// workload's p2p ordering check and same-origin accumulate ordering).
func TestDelaysReordered(t *testing.T) {
	plan := &fault.Plan{Seed: 23, DelayRate: 0.5, DelayMax: 40 * sim.Microsecond}
	s := mustRun(t, faultWorkloadConfig(plan), reliabilityWorkload).Summary()
	if s.FaultDelays == 0 {
		t.Fatal("plan never delayed anything")
	}
}

// TestSameSeedSamePlanIdenticalRuns: the full faulty execution is
// reproducible — same seed, same plan, bit-identical summary.
func TestSameSeedSamePlanIdenticalRuns(t *testing.T) {
	plan := fault.Plan{Seed: 13, DropRate: 0.1, DelayRate: 0.2, DupRate: 0.1}
	p1, p2 := plan, plan
	a := mustRun(t, faultWorkloadConfig(&p1), reliabilityWorkload).Summary()
	b := mustRun(t, faultWorkloadConfig(&p2), reliabilityWorkload).Summary()
	if a != b {
		t.Fatalf("same seed+plan diverged:\na: %v\nb: %v", a, b)
	}
}

// TestErrorsReturnRMARange: under MPI_ERRORS_RETURN an out-of-range RMA
// op surfaces a typed error on the origin instead of panicking, and the
// op becomes a no-op.
func TestErrorsReturnRMARange(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Put(PutFloat64s([]float64{1}), 1, 64, Scalar(Float64)) // outside 8-byte window
			err := r.Err()
			if err == nil {
				t.Error("no error recorded for out-of-range put")
			} else if err.Class != ErrRMARange {
				t.Errorf("class = %v, want MPI_ERR_RMA_RANGE", err.Class)
			}
			r.ClearErr()
			if r.Err() != nil {
				t.Error("ClearErr did not clear")
			}
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 && GetFloat64s(buf)[0] != 0 {
			t.Error("erroneous put mutated target memory")
		}
		c.Barrier()
	})
}

// TestErrorsReturnProcFailed: an RMA op whose target crashed — with no
// failover route installed — surfaces MPI_ERR_PROC_FAILED on the origin
// once the transport gives up, instead of hanging or panicking.
func TestErrorsReturnProcFailed(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{{Rank: 1, At: sim.Time(50 * sim.Microsecond)}}}
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 1 {
			r.Compute(sim.Microseconds(10000)) // parked when the crash fires
			return
		}
		r.Compute(sim.Microseconds(100)) // issue after the target is dead
		win.LockAll(AssertNone)
		win.Put(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64))
		win.FlushAll() // completes via abandonment, not a hang
		win.UnlockAll()
		err := r.Err()
		if err == nil {
			t.Error("no error for op to crashed target")
		} else if err.Class != ErrProcFailed {
			t.Errorf("class = %v, want MPI_ERR_PROC_FAILED", err.Class)
		} else if !strings.Contains(err.Msg, "failed") {
			t.Errorf("unhelpful message: %q", err.Msg)
		}
	})
}

// TestFatalModeStillPanics: the default error mode preserves the
// historical panic behaviour with the exact message.
func TestFatalModeStillPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic in fatal mode")
		}
		if !strings.Contains(p.(string), "outside") {
			t.Fatalf("wrong panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Put(PutFloat64s([]float64{1}), 1, 64, Scalar(Float64))
		}
	})
}

// TestCrashedPeerP2PSilent: point-to-point sends to a crashed rank are
// silently dropped (counted, not fatal) — the shutdown fan-out of
// layered runtimes must survive dead peers.
func TestCrashedPeerP2PSilent(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{{Rank: 1, At: sim.Time(10 * sim.Microsecond)}}}
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		c.Barrier()
		if r.Rank() == 1 {
			r.Compute(sim.Microseconds(1000))
			return
		}
		r.Compute(sim.Microseconds(500))
		c.Send(1, 4, []byte("into the void"))
		// Stay alive past the retransmission timeout so the transport
		// gets to classify the loss.
		r.Compute(sim.Microseconds(500))
	})
	if s := w.Summary(); s.P2PLost == 0 {
		t.Fatalf("lost p2p send not counted: %v", s)
	}
}

// TestCrashedRankTeardown: World.Run releases a crashed rank once the run
// is over. The rank's deferred calls run then and stop at their first MPI
// call, so the summary read afterwards is the one a rank without them
// leaves; a deferred call that panics becomes Run's error.
func TestCrashedRankTeardown(t *testing.T) {
	run := func(cleanup func(win Window)) (string, error) {
		cfg := testConfig(2, 2)
		cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{{Rank: 1, At: sim.Time(50 * sim.Microsecond)}}}
		w, err := Run(cfg, func(r *Rank) {
			c := r.CommWorld()
			win, _ := r.WinAllocate(c, 8, nil)
			c.Barrier()
			if r.Rank() == 1 {
				defer cleanup(win)
				r.Compute(sim.Microseconds(1000)) // parked when the crash fires
				return
			}
			r.Compute(sim.Microseconds(500))
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", w.Summary()), nil
	}
	want, err := run(func(Window) {})
	if err != nil {
		t.Fatal(err)
	}
	var unwound, freed bool
	got, err := run(func(win Window) {
		unwound = true
		win.Free()
		freed = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !unwound || freed {
		t.Fatalf("unwound=%v freed=%v, want the deferred call started and stopped inside Free", unwound, freed)
	}
	if got != want {
		t.Fatalf("teardown moved the summary:\n got %s\nwant %s", got, want)
	}
	_, err = run(func(Window) { panic("cleanup failed") })
	if err == nil || !strings.Contains(err.Error(), "rank1") || !strings.Contains(err.Error(), "cleanup failed") {
		t.Fatalf("Run returned %v, want rank1's deferred panic as an error", err)
	}
}

// TestStallDelaysService: a stalled rank services active messages only
// after the stall ends, so an op issued into the stall completes late
// but correctly.
func TestStallDelaysService(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Fault = &fault.Plan{Seed: 3, Stalls: []fault.Stall{
		{Rank: 1, At: sim.Time(30 * sim.Microsecond), Duration: 300 * sim.Microsecond},
	}}
	var flushedAt sim.Time
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			r.Compute(sim.Microseconds(50)) // target now mid-stall
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{2}), 1, 0, Scalar(Float64), OpSum)
			win.Flush(1)
			flushedAt = r.Now()
			win.UnlockAll()
			c.Send(1, 8, nil) // release the target
		} else {
			// Parked inside MPI (like a ghost), so the runtime can
			// service the accumulate — but only once the stall lifts.
			c.Recv(0, 8)
			if got := GetFloat64s(buf)[0]; got != 2 {
				t.Errorf("accumulate during stall lost: %v", got)
			}
		}
	})
	if flushedAt < sim.Time(330*sim.Microsecond) {
		t.Fatalf("flush completed at %v, inside the stall window", flushedAt)
	}
}

// TestStragglerSlowsCompute: a straggler node's Compute calls take
// longer in virtual time.
func TestStragglerSlowsCompute(t *testing.T) {
	cfg := testConfig(2, 1) // two nodes, one rank each
	cfg.Fault = &fault.Plan{Seed: 3, Stragglers: map[int]float64{1: 4}}
	var t0, t1 sim.Time
	mustRun(t, cfg, func(r *Rank) {
		r.Compute(sim.Microseconds(100))
		if r.Rank() == 0 {
			t0 = r.Now()
		} else {
			t1 = r.Now()
		}
	})
	if t0 != sim.Time(100*sim.Microsecond) {
		t.Fatalf("normal node time %v", t0)
	}
	if t1 != sim.Time(400*sim.Microsecond) {
		t.Fatalf("straggler time %v, want 4x slowdown", t1)
	}
}

// TestUnackedOrderSurvivesFailover: a stream's unacknowledged packets are
// kept in sequence order with no index beside them, so acknowledging from
// the middle leaves holes. Credit return and failover must walk what is
// left in sequence order — same-origin accumulate ordering rides on it —
// skip the holes, and leave the list empty.
func TestUnackedOrderSurvivesFailover(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Errors = ErrorsReturn
	cfg.Fault = &fault.Plan{Seed: 3}
	cfg.Flow = &FlowConfig{Credits: 16}
	var rerouted []int
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		window, buf := r.WinAllocate(c, 8*8, nil)
		win := window.(*Win)
		c.Barrier()
		switch r.Rank() {
		case 1:
			r.Compute(sim.Microseconds(10000)) // parked when it is killed
			return
		case 2:
			c.Barrier()
			if got, want := GetFloat64s(buf), []float64{0, 2, 0, 0, 5, 0, 7, 8}; !reflect.DeepEqual(got, want) {
				t.Errorf("replacement target holds %v, want %v", got, want)
			}
			return
		}
		win.SetReroute(func(origin, old, disp int) (int, bool) {
			rerouted = append(rerouted, disp/8)
			return 2, true
		})
		win.LockAll(AssertNone)
		for i := 0; i < 8; i++ {
			win.Accumulate(PutFloat64s([]float64{float64(i + 1)}), 1, i*8, Scalar(Float64), OpSum)
		}
		rel, st := r.w.rel, win.relStream(r.w.rel, 1)
		pkts := append([]*packet(nil), st.pending()...)
		if len(pkts) != 8 || st.live != 8 {
			t.Fatalf("%d packets pending, %d live, want 8 and 8", len(pkts), st.live)
		}
		for i, pkt := range pkts {
			if pkt.seq != int64(i) || pkt.op.disp != i*8 {
				t.Fatalf("pending[%d] is seq %d, disp %d", i, pkt.seq, pkt.op.disp)
			}
		}
		credits := pkts[0].op.ext.credit
		// The target dies with everything in flight; acks for 2, 3, 5 and
		// then 0 had already made it back.
		r.w.killRank(1)
		for _, i := range []int{2, 3, 5} {
			rel.deliverAck(pkts[i])
		}
		if st.live != 5 || st.head != 0 || len(st.pending()) != 8 {
			t.Fatalf("after acking the middle: live %d, head %d, %d listed", st.live, st.head, len(st.pending()))
		}
		rel.deliverAck(pkts[0])
		if st.live != 4 || st.head != 1 || st.pending()[0] != pkts[1] {
			t.Fatalf("after acking the head: live %d, head %d", st.live, st.head)
		}
		if credits.available != 16-4 {
			t.Fatalf("%d credits available with 4 ops in flight", credits.available)
		}
		rel.returnCredits(1)
		rel.returnCredits(1) // each credit goes back once
		if credits.available != 16 {
			t.Fatalf("%d credits available after the eager return, want 16", credits.available)
		}
		for _, i := range []int{1, 4, 6, 7} {
			if pkts[i].op.ext.credit != nil {
				t.Fatalf("op %d still holds its credit", i)
			}
		}
		rel.failoverStream(st)
		if want := []int{1, 4, 6, 7}; !reflect.DeepEqual(rerouted, want) {
			t.Fatalf("failed over in order %v, want %v", rerouted, want)
		}
		if st.live != 0 || len(st.unacked) != 0 || st.head != 0 {
			t.Fatalf("failed-over stream still lists %d packets (live %d, head %d)", len(st.unacked), st.live, st.head)
		}
		for i, pkt := range win.relStream(rel, 2).pending() {
			if want := []int{1, 4, 6, 7}[i]; pkt.seq != int64(i) || pkt.op.disp != want*8 {
				t.Fatalf("replacement stream seq %d carries disp %d, want %d", pkt.seq, pkt.op.disp, want*8)
			}
		}
		win.UnlockAll()
		c.Barrier()
	})
}

// TestUnackedListReusesItsArray: a stream that keeps a few packets in
// flight forever must not grow its list with the packets it has sent.
func TestUnackedListReusesItsArray(t *testing.T) {
	st := &stream{}
	var inflight []*packet
	for i := 0; i < 10_000; i++ {
		inflight = append(inflight, st.newPacket(&packet{}))
		if len(inflight) == 5 { // settle the second-oldest, then the oldest
			for _, k := range []int{1, 0} {
				inflight[k].acked = true
				st.settle()
			}
			inflight = append(inflight[:0], inflight[2:]...)
		}
		if st.live != len(inflight) || st.pending()[0] != inflight[0] {
			t.Fatalf("packet %d: live %d, want %d; head of list is not the oldest in flight", i, st.live, len(inflight))
		}
	}
	if cap(st.unacked) > 16 {
		t.Fatalf("list capacity grew to %d for 5 packets in flight", cap(st.unacked))
	}
}

// TestTimerChainQuiescesWithWorld: the chained timers are background
// housekeeping like the eager ones were. When the last process finishes
// the chain's resident event is discarded unrun, nothing behind it is ever
// promoted, and the run ends at the instant the fault-free world ends —
// with timers still pending, or the test shows nothing.
func TestTimerChainQuiescesWithWorld(t *testing.T) {
	base := mustRun(t, faultWorkloadConfig(nil), reliabilityWorkload)
	w := mustRun(t, faultWorkloadConfig(&fault.Plan{Seed: 7}), reliabilityWorkload)
	if got, want := w.Engine().Now(), base.Engine().Now(); got != want {
		t.Fatalf("fault-plan world ended at %v, fault-free at %v", got, want)
	}
	c := w.rel.timers
	if pending := c.armed - c.fired - c.dropped; pending <= 0 || w.rel.timerTail == nil {
		t.Fatalf("census %+v: no timer was pending when the world ended", c)
	}
	if c.fired-c.noop != 0 {
		t.Fatalf("census %+v: a timer acted under a zero-rate plan", c)
	}
	if s := w.Engine().SchedulerState(); s.Depth != 0 {
		t.Fatalf("%d events resident after the run: %v", s.Depth, s)
	}
}

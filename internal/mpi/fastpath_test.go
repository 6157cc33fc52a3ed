package mpi

import (
	"testing"

	"repro/internal/sim"
)

// fastpathWorkload mixes every scheduling shape the fast paths touch:
// computation, p2p messaging, lock/unlock and fence epochs (advance
// chains), flushes, and the full RMA op family (wire chains, service
// backlogs).
func fastpathWorkload(r *Rank) {
	c := r.CommWorld()
	win, buf := r.WinAllocate(c, 128, nil)
	c.Barrier()

	r.Compute(3 * sim.Microsecond)
	if r.Rank() == 0 {
		c.Send(1, 9, []byte("ping"))
	} else if r.Rank() == 1 {
		c.Recv(0, 9)
	}

	win.LockAll(AssertNone)
	for tgt := 0; tgt < c.Size(); tgt++ {
		if tgt == r.Rank() {
			continue
		}
		win.Accumulate(PutFloat64s([]float64{1}), tgt, 0, Scalar(Float64), OpSum)
	}
	win.FlushAll()
	win.UnlockAll()

	win.Fence(AssertNone)
	if r.Rank() == 0 {
		win.Put(PutFloat64s([]float64{42}), 1, 8, Scalar(Float64))
		dst := make([]byte, 8)
		win.Get(dst, 1, 0, Scalar(Float64))
	}
	win.Fence(AssertNone)

	c.Barrier()
	_ = buf
	win.Free()
}

// TestFastPathOnOffIdentical is the A/B contract for the chains and
// backlogs: the same workload under NoSimFastPath (the eager schedule,
// every event pushed on its own) and under the default fast paths must
// produce an identical summary — same end time, same counters, bit for
// bit, and the same events once the acks the fast paths defer at the
// channel (rmaOp.ack) are counted back in. The fast paths elide scheduler
// mechanics, never scheduling decisions.
func TestFastPathOnOffIdentical(t *testing.T) {
	fast := mustRun(t, testConfig(8, 4), fastpathWorkload)
	slowCfg := testConfig(8, 4)
	slowCfg.NoSimFastPath = true
	slow := mustRun(t, slowCfg, fastpathWorkload)

	a, b := fast.Summary(), slow.Summary()
	// PeakQueueResidency measures scheduler occupancy — exactly what the
	// chains and backlogs exist to reduce, so a fast-path world that did
	// not hold fewer events made the comparison vacuous — and it is the
	// one summary field allowed to differ between the A/B runs.
	if a.Counters[PeakQueueResidency] >= b.Counters[PeakQueueResidency] {
		t.Fatalf("peak queue residency %d with fast paths, %d without: the A/B comparison is vacuous",
			a.Counters[PeakQueueResidency], b.Counters[PeakQueueResidency])
	}
	a.Counters[PeakQueueResidency], b.Counters[PeakQueueResidency] = 0, 0
	if a != b {
		t.Fatalf("fast-path run diverged from heap-only run:\nfast: %+v\nslow: %+v", a, b)
	}
	// The fast run elides the acks nobody waits for (rmaOp.ack); with them
	// counted back in it pops what the eager run does.
	if fast.EventsEager() == fast.Engine().EventsExecuted() {
		t.Fatal("the fast-path run elided no ack: the event comparison is vacuous")
	}
	if a, b := fast.EventsEager(), slow.Engine().EventsExecuted(); a != b {
		t.Fatalf("event counts differ: fast %d (elided acks included), slow %d", a, b)
	}
}

// TestFastPathOnOffIdenticalUnderFlowControl repeats the A/B check with
// credit flow control, whose stall/timeout bookkeeping is observed
// between events and is therefore the most fragile consumer of event
// ordering.
func TestFastPathOnOffIdenticalUnderFlowControl(t *testing.T) {
	run := func(off bool) WorldSummary {
		cfg := testConfig(4, 4)
		cfg.NoSimFastPath = off
		cfg.Flow = &FlowConfig{Credits: 2}
		return mustRun(t, cfg, func(r *Rank) {
			c := r.CommWorld()
			win, _ := r.WinAllocate(c, 64, nil)
			c.Barrier()
			if r.Rank() != 0 {
				win.Lock(0, LockShared, AssertNone)
				for i := 0; i < 8; i++ {
					win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
				}
				win.Unlock(0)
			} else {
				r.Compute(50 * sim.Microsecond)
			}
			c.Barrier()
			win.Free()
		}).Summary()
	}
	a, b := run(false), run(true)
	a.Counters[PeakQueueResidency], b.Counters[PeakQueueResidency] = 0, 0 // scheduler occupancy, not system state
	if a != b {
		t.Fatalf("flow-control run diverged:\nfast: %+v\nslow: %+v", a, b)
	}
}

// TestFastPathOnOffIdenticalWithDeepBacklog repeats the A/B check where
// the intrusive queues carry the most: sixteen origins each send 64
// accumulates, and a put beside each, to one target, so wire chains and
// the target's service backlog run hundreds of ops deep. The eager
// schedule — every arrival, completion and ack its own heap event — is
// the reference.
func TestFastPathOnOffIdenticalWithDeepBacklog(t *testing.T) {
	run := func(off bool) (WorldSummary, int64) {
		cfg := testConfig(17, 6)
		cfg.NoSimFastPath = off
		var peak int
		w := mustRun(t, cfg, func(r *Rank) {
			c := r.CommWorld()
			win, buf := r.WinAllocate(c, 17*8, nil)
			c.Barrier()
			if r.Rank() != 0 {
				win.LockAll(AssertNone)
				for i := 0; i < 64; i++ {
					win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
					win.Put(PutFloat64s([]float64{float64(i)}), 0, r.Rank()*8, Scalar(Float64))
				}
				win.UnlockAll()
			}
			c.Barrier()
			if r.Rank() == 0 {
				peak = int(r.Stats()[PeakDepth])
				if got := GetFloat64s(buf); got[0] != 16*64 || got[16] != 63 {
					t.Errorf("target window = %v", got)
				}
			}
			win.Free()
		})
		if peak < 256 {
			t.Fatalf("target's service backlog peaked at %d, want hundreds", peak)
		}
		s := w.Summary()
		s.Counters[PeakQueueResidency] = 0 // scheduler occupancy, not system state
		return s, w.EventsEager()
	}
	fast, fastEvents := run(false)
	slow, slowEvents := run(true)
	if fast != slow {
		t.Fatalf("fast-path run diverged from heap-only run:\nfast: %+v\nslow: %+v", fast, slow)
	}
	if fastEvents != slowEvents {
		t.Fatalf("event counts differ: fast %d (elided acks included), slow %d", fastEvents, slowEvents)
	}
}

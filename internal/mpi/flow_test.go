package mpi

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// creditStorm is the flow-control stress shape: three origins each
// fire ops accumulates at rank 0 while it computes (providing no
// progress), so issued AMs pile up in its queue until it finally
// parks in MPI and drains them. It returns the world and the value
// rank 0 observed after every origin finished.
func creditStorm(t *testing.T, cfg Config, ops int) (*World, float64) {
	t.Helper()
	var sum float64
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			r.Compute(200 * sim.Microsecond)
			for i := 1; i < cfg.N; i++ {
				c.Recv(i, 7)
			}
			sum = GetFloat64s(buf)[0]
		} else {
			win.LockAll(AssertNone)
			for i := 0; i < ops; i++ {
				win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			}
			win.UnlockAll()
			c.Send(0, 7, nil)
		}
		c.Barrier()
		win.Free()
	})
	return w, sum
}

func TestCreditWindowBoundsQueueDepth(t *testing.T) {
	const ops = 64
	unbounded, usum := creditStorm(t, testConfig(4, 4), ops)

	cfg := testConfig(4, 4)
	cfg.Flow = &FlowConfig{Credits: 2}
	bounded, bsum := creditStorm(t, cfg, ops)

	// 3 origins x 2 credits: the busy target's queue can never hold
	// more than 6 operations, while the unprotected run must exceed
	// that for the comparison to mean anything.
	const bound = 3 * 2
	if d := unbounded.Summary().PeakQueueDepth; d <= bound {
		t.Fatalf("storm too small: unprotected peak depth %d within bound %d", d, bound)
	}
	if d := bounded.Summary().PeakQueueDepth; d > bound {
		t.Fatalf("credit window leaked: peak depth %d > bound %d", d, bound)
	}
	if s := bounded.Summary().CreditStalls; s == 0 {
		t.Fatal("no origin ever stalled on a credit; the window was never exercised")
	}
	// Backpressure delays operations, it must not lose them.
	if want := float64(3 * ops); usum != want || bsum != want {
		t.Fatalf("sums = %v (unbounded) / %v (bounded), want %v", usum, bsum, want)
	}
}

func TestCreditTimeoutRaisesErrBacklog(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	cfg.Flow = &FlowConfig{Credits: 1, Timeout: 20 * sim.Microsecond}
	var (
		sum      float64
		errClass ErrClass
		errMsg   string
		drops    int64
	)
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			r.Compute(300 * sim.Microsecond)
			c.Recv(1, 7)
			sum = GetFloat64s(buf)[0]
		} else {
			win.LockAll(AssertNone)
			for i := 0; i < 5; i++ {
				win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			}
			if err := r.Err(); err != nil {
				errClass, errMsg = err.Class, err.Error()
				r.ClearErr()
			}
			win.UnlockAll()
			drops = r.Stats().BacklogDropped
			c.Send(0, 7, nil)
		}
		c.Barrier()
		win.Free()
	})
	if errClass != ErrBacklog {
		t.Fatalf("expected MPI_ERR_BACKLOG, got class %v (%q)", errClass, errMsg)
	}
	if !strings.Contains(errMsg, "credit") {
		t.Fatalf("backlog error does not explain itself: %q", errMsg)
	}
	// Op 1 takes the only credit; ops 2-5 each wait out the 20us
	// timeout against a 300us-busy target and are dropped.
	if drops != 4 {
		t.Fatalf("BacklogDropped = %d, want 4", drops)
	}
	if sum != 1 {
		t.Fatalf("target saw %v, want exactly the one undropped op", sum)
	}
}

func TestCreditsReturnedOnConfirmedDeadTarget(t *testing.T) {
	// An op in flight to a rank that crashes recoverably holds its
	// flow-control credit; once the failure detector confirms the death,
	// the credit must be returned eagerly so the origin is not starved
	// for the whole downtime. The proof is temporal: with a one-credit
	// window, the second op can only be issued before the revival if the
	// first op's credit came back at confirmation time.
	const crashAt = 50 * sim.Microsecond
	cfg := testConfig(2, 2)
	cfg.Fault = &fault.Plan{
		Seed:       1,
		AppCrashes: []fault.AppCrash{{Rank: 0, At: sim.Time(crashAt)}},
	}
	cfg.Flow = &FlowConfig{Credits: 1}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	w.SetTracer(tr)
	var (
		sum      float64
		issuedAt sim.Time
	)
	w.Launch(func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			r.World().TrackHealth([]int{0})
		}
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			// Busy well past the whole recovery pipeline: op 1 stays
			// unacknowledged (and its credit held) until the detector
			// acts, and the crash freezes this rank mid-compute.
			r.Compute(600 * sim.Microsecond)
			c.Recv(1, 7)
			sum = GetFloat64s(buf)[0]
		} else {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			// Blocks on the window's only credit, held by op 1 in flight
			// to the (soon to be confirmed-dead) target.
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			issuedAt = r.Now()
			win.UnlockAll()
			c.Send(0, 7, nil)
		}
		c.Barrier()
		win.Free()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var revivedAt sim.Time
	for _, f := range tr.Faults() {
		if f.Kind == "revive" && f.Rank == 0 {
			revivedAt = f.At
		}
	}
	if revivedAt == 0 {
		t.Fatal("rank 0 was never revived; recovery pipeline did not run")
	}
	if issuedAt >= revivedAt {
		t.Fatalf("op 2 issued at %v, after revival at %v: the in-flight op's credit leaked for the whole downtime",
			issuedAt, revivedAt)
	}
	if issuedAt <= sim.Time(crashAt) {
		t.Fatalf("op 2 issued at %v, before the crash at %v: the storm never contended for the credit",
			issuedAt, sim.Time(crashAt))
	}
	s := w.Summary()
	if s.AppRecoveries != 1 {
		t.Fatalf("AppRecoveries = %d, want 1", s.AppRecoveries)
	}
	// Eager return must not lose or double-apply either op.
	if sum != 2 {
		t.Fatalf("target saw %v, want both ops applied exactly once", sum)
	}
}

func TestDeadlockErrorCarriesWaitGraph(t *testing.T) {
	// A hang in a flow-controlled world must come back with the
	// wait-for graph attached, not just a list of parked procs.
	cfg := testConfig(3, 3)
	cfg.Flow = &FlowConfig{}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		switch r.Rank() {
		case 0:
			c.Recv(1, 99) // parked in MPI forever: services AMs but never returns
		case 1:
			// Wins the exclusive lock on rank 0, then blocks holding it.
			win.Lock(0, LockExclusive, AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			win.Flush(0)
			c.Recv(2, 99)
		case 2:
			// Queues behind rank 1's exclusive lock and waits forever.
			r.Compute(5 * sim.Microsecond)
			win.Lock(0, LockExclusive, AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			win.Flush(0)
		}
	})
	err = w.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	msg := de.Error()
	if !strings.Contains(msg, "wait-for graph") {
		t.Fatalf("deadlock report has no wait-for graph:\n%s", msg)
	}
	// Both edges of rank 2's wait come from the channel state and the
	// manager's queue: it awaits a grant, which is queued behind rank 1's
	// exclusive hold at rank 0.
	for _, edge := range []string{
		"rank2 waits on rank0: win 1: queued behind exclusive lock",
		"rank2 waits on rank0: win 1: awaiting lock grant",
		"rank2 waits on rank0: win 1: 1 unacked RMA op(s)",
	} {
		if !strings.Contains(msg, edge) {
			t.Fatalf("wait-for graph lacks %q:\n%s", edge, msg)
		}
	}
	if strings.Contains(msg, "rank1 waits on rank0: win 1: awaiting lock grant") {
		t.Fatalf("wait-for graph reports the lock holder as awaiting its grant:\n%s", msg)
	}
}

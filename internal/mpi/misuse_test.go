package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// These tests exercise failure modes: incorrect MPI usage must produce
// a diagnosable error (a panic with a meaningful message, or a
// DeadlockError naming the stuck call) rather than silent corruption or
// a hang without explanation.

// runExpectDeadlock runs main and asserts the world deadlocks with the
// given substring in a stuck-process reason.
func runExpectDeadlock(t *testing.T, cfg Config, substr string, main func(r *Rank)) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(main)
	err = w.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if !strings.Contains(de.Error(), substr) {
		t.Fatalf("deadlock report %q does not mention %q", de.Error(), substr)
	}
}

func TestDeadlockReportNamesRecv(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Recv", func(r *Rank) {
		if r.Rank() == 0 {
			r.CommWorld().Recv(1, 5) // never sent
		}
	})
}

func TestDeadlockReportNamesWait(t *testing.T) {
	// Wait without any origin calling Complete.
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_wait", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 1 {
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
		// Rank 0 never starts an access epoch.
	})
}

func TestDeadlockReportNamesBarrier(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Barrier", func(r *Rank) {
		if r.Rank() == 0 {
			r.CommWorld().Barrier() // rank 1 never arrives
		}
	})
}

func TestDeadlockReportNamesFlushWhenNoProgressPossible(t *testing.T) {
	// Flush of an accumulate to a target that exits without ever
	// re-entering MPI: no progress is possible, and the report says
	// what was being waited for.
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_flush", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			win.Flush(1)
			win.UnlockAll()
		}
		// Rank 1 terminates immediately: its pending AMs are never
		// serviced.
	})
}

func TestMismatchedCollectivesDiagnosed(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic for mismatched collectives")
		}
		if !strings.Contains(fmt.Sprint(p), "collective mismatch") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Barrier()
		} else {
			c.AllgatherInt(1) // mismatched collective
		}
	})
}

func TestStartWithoutPostDeadlocks(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_start", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Start([]int{1}, AssertNone) // target never posts
		}
	})
}

func TestCompleteWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Complete()
		}
	})
}

func TestWaitWithoutPostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Wait()
		}
	})
}

func TestDoublePostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Post([]int{1}, AssertNone)
			win.Post([]int{1}, AssertNone)
		}
	})
}

func TestNestedLockAllPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.LockAll(AssertNone)
		}
	})
}

func TestUnlockAllWithoutLockAllPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.UnlockAll()
		}
	})
}

func TestPSCWOpOutsideGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		switch r.Rank() {
		case 0:
			win.Start([]int{1}, AssertNone)
			// Target 2 is not in the access group.
			win.Put(PutFloat64s([]float64{1}), 2, 0, Scalar(Float64))
			win.Complete()
		case 1:
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
	})
}

func TestNegativeWinSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		r.WinAllocate(r.CommWorld(), -1, nil)
	})
}

func TestBadDatatypePanicsAtIssue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 64, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			bad := Datatype{Basic: Float64, Count: 2, BlockLen: 3, Stride: 2}
			win.Put(make([]byte, 48), 1, 0, bad)
		}
	})
}

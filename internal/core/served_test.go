package core

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The Casper twins of the mpi package's served synchronization tests:
// Casper's translated epochs — ghost locks taken at the first touch,
// Acquire and Flush per ghost, UnlockEach per target — queue from end to
// end, and must leave every world exactly as the eager schedule does.

// TestServedSyncCasperMisuse: a misused Casper synchronization call made
// with redirected calls queued panics in the calling process, recoverably,
// with the same message, at the same virtual instant and with the same
// world afterwards as with the fast paths off.
func TestServedSyncCasperMisuse(t *testing.T) {
	misuses := map[string]func(win mpi.Window){
		"nested Lock": func(win mpi.Window) {
			win.Lock(1, mpi.LockShared, mpi.AssertNone)
			win.Lock(1, mpi.LockShared, mpi.AssertNone)
		},
		"Unlock without Lock": func(win mpi.Window) { win.Unlock(2) },
		"Flush without epoch": func(win mpi.Window) { win.Flush(1) },
		"UnlockAll alone":     func(win mpi.Window) { win.UnlockAll() },
	}
	type outcome struct {
		panicked string
		after    sim.Time
		summary  mpi.WorldSummary
	}
	run := func(misuse func(win mpi.Window), eager bool) outcome {
		cfg := casperConfig(8, 4)
		cfg.NoSimFastPath = eager
		var out outcome
		w := casperRun(t, cfg, Config{NumGhosts: 1}, func(p *Process) {
			c := p.CommWorld()
			busy, _ := p.WinAllocate(c, 64, nil)
			win, _ := p.WinAllocate(c, 64, nil)
			c.Barrier()
			if p.Rank() == 0 {
				busy.LockAll(mpi.AssertNone)
				one := mpi.PutFloat64s([]float64{1})
				for tgt := 1; tgt < p.Size(); tgt++ {
					busy.Accumulate(one, tgt, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							out.panicked = fmt.Sprint(r)
						}
					}()
					misuse(win)
				}()
				out.after = p.Now()
				busy.UnlockAll()
			}
			c.Barrier()
		})
		out.summary = w.Summary()
		out.summary.Counters[mpi.PeakQueueResidency] = 0 // scheduler occupancy, not system state
		return out
	}
	for name, misuse := range misuses {
		served, eager := run(misuse, false), run(misuse, true)
		if served != eager {
			t.Errorf("%s: served %+v\n eager %+v", name, served, eager)
		}
		if served.panicked == "" {
			t.Errorf("%s: no panic", name)
		}
	}
}

// TestServedSyncCasperResultsReadEagerValues: through Casper's ghosts, a
// result-bearing op on another node and an op on the caller's own window,
// each behind queued accumulates and followed by Flush, Unlock or
// UnlockAll, read right after the completion what they read eagerly.
func TestServedSyncCasperResultsReadEagerValues(t *testing.T) {
	run := func(kind mpi.OpKind, self bool, closing string, eager bool) (float64, sim.Time) {
		cfg := casperConfig(8, 4)
		cfg.NoSimFastPath = eager
		var got float64
		var at sim.Time
		casperRun(t, cfg, Config{NumGhosts: 1}, func(p *Process) {
			c := p.CommWorld()
			win, mem := p.WinAllocate(c, 64, nil)
			copy(mem, mpi.PutFloat64s([]float64{10}))
			c.Barrier()
			if p.Rank() == 0 {
				target := p.Size() - 1 // on the other node
				if self {
					target = 0
				}
				if closing == "UnlockAll" {
					win.LockAll(mpi.AssertNone)
				} else {
					win.Lock(target, mpi.LockShared, mpi.AssertNone)
				}
				one, five := mpi.PutFloat64s([]float64{1}), mpi.PutFloat64s([]float64{5})
				for i := 0; i < 3; i++ {
					win.Accumulate(one, target, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				res := make([]byte, 8)
				switch kind {
				case mpi.KindGet:
					win.Get(res, target, 0, mpi.Scalar(mpi.Float64))
				case mpi.KindGetAcc:
					win.GetAccumulate(five, res, target, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				case mpi.KindFetchOp:
					win.FetchAndOp(five, res, target, 0, mpi.Float64, mpi.OpSum)
				case mpi.KindCAS:
					win.CompareAndSwap(mpi.PutFloat64s([]float64{13}), five, res, target, 0, mpi.Float64)
				case mpi.KindAcc:
					win.Accumulate(five, target, 0, mpi.Scalar(mpi.Float64), mpi.OpSum)
				}
				switch closing {
				case "Flush":
					win.Flush(target)
				case "Unlock":
					win.Unlock(target)
				case "UnlockAll":
					win.UnlockAll()
				}
				if self {
					res = mem
				}
				got = mpi.GetFloat64s(res[:8])[0]
				at = p.Now()
				if closing == "Flush" {
					win.Unlock(target)
				}
			}
			c.Barrier()
		})
		return got, at
	}
	for _, kind := range []mpi.OpKind{mpi.KindGet, mpi.KindGetAcc, mpi.KindFetchOp, mpi.KindCAS, mpi.KindAcc} {
		for _, self := range []bool{false, true} {
			if !self && kind == mpi.KindAcc {
				continue // nothing comes back
			}
			for _, closing := range []string{"Flush", "Unlock", "UnlockAll"} {
				name := fmt.Sprintf("%v/self=%v/%s", kind, self, closing)
				served, servedAt := run(kind, self, closing, false)
				eager, eagerAt := run(kind, self, closing, true)
				want := 13.0 // 10 + 3 accumulates of 1: the result, or the window after a Get
				if self {
					switch kind {
					case mpi.KindCAS:
						want = 5
					case mpi.KindAcc, mpi.KindGetAcc, mpi.KindFetchOp:
						want = 18
					}
				}
				if served != eager || servedAt != eagerAt || served != want {
					t.Errorf("%s: served read %v at %v, eager %v at %v; want %v", name, served, servedAt, eager, eagerAt, want)
				}
			}
		}
	}
}

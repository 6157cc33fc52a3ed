package mpi

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// queueableCall makes one call of a queueable kind on win. dt is the
// target layout of the kinds that take one; FetchOp and CAS move one
// element of dt.Basic.
func queueableCall(win *Win, kind OpKind, target, disp int, dt Datatype) {
	buf := make([]byte, 64)
	switch kind {
	case KindPut:
		win.Put(buf, target, disp, dt)
	case KindGet:
		win.Get(buf, target, disp, dt)
	case KindAcc:
		win.Accumulate(buf, target, disp, dt, OpSum)
	case KindGetAcc:
		win.GetAccumulate(buf, make([]byte, 64), target, disp, dt, OpSum)
	case KindFetchOp:
		win.FetchAndOp(buf, make([]byte, 8), target, disp, dt.Basic, OpSum)
	case KindCAS:
		win.CompareAndSwap(buf, buf, make([]byte, 8), target, disp, dt.Basic)
	}
}

// misuseOutcome is what rank 0 observed of one misused call.
type misuseOutcome struct {
	panicked string   // the recovered panic, "" for none
	after    sim.Time // Now after the call
	summary  WorldSummary
}

// runMisuse has rank 0 queue three accumulates on a lockall epoch, then
// make the misused call — to a target outside an epoch, to a target out of
// range, at a displacement past the window, or with an invalid datatype —
// recover the panic inside its own process, read Now, and carry on.
func runMisuse(t *testing.T, kind OpKind, misuse string, eager bool) misuseOutcome {
	t.Helper()
	cfg := testConfig(3, 3)
	cfg.NoSimFastPath = eager
	var out misuseOutcome
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocateRegion(c, 64)
		idle, _ := r.WinAllocateRegion(c, 64) // never in an epoch
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			one := PutFloat64s([]float64{1})
			for i := 0; i < 4; i++ {
				win.Accumulate(one, 1, 0, Scalar(Float64), OpSum)
				if i == 0 {
					r.settle() // LockAll and the first touch of target 1 drain; the rest queue
				}
			}
			if queued := len(r.issueQ.items); queued != 3 && !eager {
				t.Errorf("%d calls queued ahead of the misuse, want 3", queued)
			}
			target, disp, dt, on := 1, 8, Scalar(Float64), win
			switch misuse {
			case "no epoch":
				on = idle
			case "target out of range":
				target = 7
			case "disp out of bounds":
				disp = 64
			case "invalid datatype":
				dt = Datatype{Basic: Float64, Count: 2, BlockLen: 3, Stride: 2}
				if kind == KindFetchOp || kind == KindCAS {
					dt = Scalar(BasicType(9))
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						out.panicked = fmt.Sprint(p)
					}
				}()
				queueableCall(on, kind, target, disp, dt)
			}()
			out.after = r.Now()
			win.UnlockAll()
		}
		c.Barrier()
	})
	out.summary = w.Summary()
	out.summary.Counters[PeakQueueResidency] = 0 // scheduler occupancy, not system state
	return out
}

// TestQueuedCallMisuseSurfacesInProcess: a queueable call that fails a
// check is not queued; it settles the calls queued before it and takes the
// eager path, so the misuse panics inside the calling rank's process —
// recoverable there — at the same virtual instant, with the same message
// and the same world afterwards, as with the fast paths off.
func TestQueuedCallMisuseSurfacesInProcess(t *testing.T) {
	for _, kind := range []OpKind{KindPut, KindGet, KindAcc, KindGetAcc, KindFetchOp, KindCAS} {
		for _, misuse := range []string{"no epoch", "target out of range", "disp out of bounds", "invalid datatype"} {
			name := fmt.Sprintf("%v/%s", kind, misuse)
			served := runMisuse(t, kind, misuse, false)
			eager := runMisuse(t, kind, misuse, true)
			if served != eager {
				t.Errorf("%s: served %+v\n eager %+v", name, served, eager)
			}
			if served.panicked == "" {
				t.Errorf("%s: did not panic", name)
			}
		}
	}
}

// TestParkWithCallsQueuedPanics is the settle rule's safety net at the MPI
// layer: code that parks without settling — here a bare Advance on the
// rank's process, standing in for an entry point that forgot to — while
// the rank has calls queued panics instead of waiting at a time the rank
// has not reached.
func TestParkWithCallsQueuedPanics(t *testing.T) {
	defer func() {
		if p := recover(); !strings.Contains(fmt.Sprint(p), "while it is served") {
			t.Fatalf("recovered %v, want the settle-rule panic", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			one := PutFloat64s([]float64{1})
			win.Accumulate(one, 1, 0, Scalar(Float64), OpSum) // first touch: eager
			win.Accumulate(one, 1, 0, Scalar(Float64), OpSum) // queued
			r.Proc().Advance(sim.Microsecond)
		}
		c.Barrier()
	})
	t.Fatal("the run did not panic")
}

// TestIssueQueueServesBackToBackCalls: an origin's runs of accumulates —
// longer than the queue, to several targets, with computation and flushes
// between them — leave the world exactly as the eager schedule does, event
// for event, while the origin is switched in about once per run instead of
// once per call. Each rank reads the clock with its last run still queued,
// which must settle it: the times it reads are the eager ones. A queued
// call takes its op header only when it is issued, so every rank ends
// holding exactly the headers it holds eagerly.
func TestIssueQueueServesBackToBackCalls(t *testing.T) {
	const rounds, perRound = 3, 150
	type outcome struct {
		summary WorldSummary
		stamps  [4][rounds]sim.Time
		events  int64  // elided acks included (World.EventsEager)
		headers [4]int // op headers on each rank's freelist at the end
	}
	run := func(eager bool) (outcome, int64) {
		cfg := testConfig(4, 4)
		cfg.NoSimFastPath = eager
		var stamps [4][rounds]sim.Time
		w := mustRun(t, cfg, func(r *Rank) {
			c := r.CommWorld()
			win, _ := r.WinAllocate(c, 64, nil)
			c.Barrier()
			win.LockAll(AssertNone)
			one := PutFloat64s([]float64{1})
			for k := 0; k < rounds; k++ {
				for i := 0; i < perRound; i++ {
					win.Accumulate(one, (r.Rank()+1+i%3)%4, 8*(i%8), Scalar(Float64), OpSum)
				}
				stamps[r.Rank()][k] = r.Now()
				r.Compute(sim.Duration(5+r.Rank()) * sim.Microsecond)
				win.FlushAll()
			}
			win.UnlockAll()
			c.Barrier()
		})
		out := outcome{summary: w.Summary(), stamps: stamps, events: w.EventsEager()}
		out.summary.Counters[PeakQueueResidency] = 0 // scheduler occupancy, not system state
		for i, rk := range w.ranks {
			for o := rk.opFree; o != nil; o = o.next() {
				out.headers[i]++
			}
		}
		return out, w.Engine().Switches()
	}
	served, servedSwitches := run(false)
	eager, eagerSwitches := run(true)
	if served != eager {
		t.Fatalf("served run diverged from the eager schedule:\nserved %+v\neager  %+v", served, eager)
	}
	if ops := served.summary.Counters[OpsIssued]; ops != 4*rounds*perRound || servedSwitches*5 > eagerSwitches {
		t.Fatalf("%d ops: %d switches served, %d eager; want at most a fifth", ops, servedSwitches, eagerSwitches)
	}
}

// syncOutcome is what rank 0 observed of one misused synchronization call.
type syncOutcome struct {
	panicked string   // the recovered panic, "" for none
	after    sim.Time // Now after the call
	summary  WorldSummary
}

// syncMisuses are the misused passive-target calls, each made on win, a
// window rank 0 has opened no epoch on beyond what the case itself opens.
var syncMisuses = map[string]func(win *Win){
	"nested Lock":                func(win *Win) { win.Lock(1, LockShared, AssertNone); win.Lock(1, LockShared, AssertNone) },
	"Lock twice in one call":     func(win *Win) { win.LockEach([]int{1, 2, 1}, LockExclusive, AssertNone) },
	"Lock out of range":          func(win *Win) { win.LockEach([]int{1, 9}, LockShared, AssertNone) },
	"Unlock without Lock":        func(win *Win) { win.Unlock(2) },
	"Unlock twice in one call":   func(win *Win) { win.LockEach([]int{1, 2}, LockShared, AssertNone); win.UnlockEach([]int{1, 2, 1}) },
	"Unlock of a lockall target": func(win *Win) { win.LockAll(AssertNone); win.Acquire(1); win.Unlock(1) },
	"nested LockAll":             func(win *Win) { win.LockAll(AssertNone); win.LockAll(AssertNone) },
	"UnlockAll without LockAll":  func(win *Win) { win.UnlockAll() },
	"Flush without epoch":        func(win *Win) { win.Flush(1) },
	"Acquire without epoch":      func(win *Win) { win.Acquire(2) },
	// Not a synchronization misuse: an op past the window behind queued
	// synchronization.
	"Put past the window": func(win *Win) {
		win.Lock(1, LockShared, AssertNone)
		win.Flush(1)
		win.Put(make([]byte, 8), 1, 64, Scalar(Float64))
		win.Unlock(1)
	},
}

// runSyncMisuse has rank 0 queue a lockall epoch of accumulates on one
// window, then make the misused synchronization call on another, recover
// the panic inside its own process, read Now, and carry on.
func runSyncMisuse(t *testing.T, misuse func(win *Win), eager bool) syncOutcome {
	t.Helper()
	cfg := testConfig(3, 3)
	cfg.NoSimFastPath = eager
	var out syncOutcome
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		busy, _ := r.WinAllocateRegion(c, 64)
		win, _ := r.WinAllocateRegion(c, 64)
		c.Barrier()
		if r.Rank() == 0 {
			busy.LockAll(AssertNone)
			one := PutFloat64s([]float64{1})
			for i := 0; i < 4; i++ {
				busy.Accumulate(one, 1+i%2, 0, Scalar(Float64), OpSum)
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						out.panicked = fmt.Sprint(p)
					}
				}()
				misuse(win)
			}()
			out.after = r.Now()
			busy.UnlockAll()
		}
		c.Barrier()
	})
	out.summary = w.Summary()
	out.summary.Counters[PeakQueueResidency] = 0 // scheduler occupancy, not system state
	return out
}

// TestServedSyncMisuseSurfacesInProcess: a misused passive-target call is
// not queued. It settles the calls queued before it and runs in the
// process, which pays the entry costs the call owes and panics — inside
// the calling rank's process, recoverable there — at the same virtual
// instant, with the same message and the same world afterwards, as with
// the fast paths off. An op past the window behind queued synchronization
// panics the same way.
func TestServedSyncMisuseSurfacesInProcess(t *testing.T) {
	for name, misuse := range syncMisuses {
		served := runSyncMisuse(t, misuse, false)
		eager := runSyncMisuse(t, misuse, true)
		if served != eager {
			t.Errorf("%s: served %+v\n eager %+v", name, served, eager)
		}
		if served.panicked == "" {
			t.Errorf("%s: did not panic", name)
		}
	}
}

// TestServedSyncResultsReadEagerValues: a completion call whose ops return
// something to the caller — a result-bearing op, or an op on the caller's
// own window — returns where the eager call returns, so the result buffer
// and the local window read, right after it, what they read eagerly: the
// target's value after the accumulates queued before the op. Each case
// runs with the fast paths on and off, and must agree.
func TestServedSyncResultsReadEagerValues(t *testing.T) {
	kinds := []OpKind{KindGet, KindGetAcc, KindFetchOp, KindCAS, KindPut, KindAcc}
	for _, kind := range kinds {
		for _, self := range []bool{false, true} {
			if !self && (kind == KindPut || kind == KindAcc) {
				continue // nothing comes back
			}
			for _, closing := range []string{"Flush", "Unlock", "UnlockAll"} {
				name := fmt.Sprintf("%v/self=%v/%s", kind, self, closing)
				served, servedAt := runResultRead(t, kind, self, closing, false)
				eager, eagerAt := runResultRead(t, kind, self, closing, true)
				if served != eager || servedAt != eagerAt {
					t.Errorf("%s: served read %v at %v, eager %v at %v", name, served, servedAt, eager, eagerAt)
				}
				want := 13.0 // 10 + 3 accumulates of 1: the result, or the window after a Get
				if self {
					switch kind {
					case KindPut, KindCAS:
						want = 5
					case KindAcc, KindGetAcc, KindFetchOp:
						want = 18
					}
				}
				if served != want {
					t.Errorf("%s: read %v, want %v", name, served, want)
				}
			}
		}
	}
}

// runResultRead has rank 0 queue three accumulates of 1 to its target's
// first element (10), make one op of kind on it (5 its origin value) — on
// rank 1, or with self on rank 0 itself — close with closing, and read at
// once the op's result, or with self its own window. It returns what it
// read and when.
func runResultRead(t *testing.T, kind OpKind, self bool, closing string, eager bool) (float64, sim.Time) {
	t.Helper()
	cfg := testConfig(2, 2)
	cfg.NoSimFastPath = eager
	var got float64
	var at sim.Time
	mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, mem := r.WinAllocateRegion(c, 64)
		copy(mem, PutFloat64s([]float64{10}))
		c.Barrier()
		if r.Rank() == 0 {
			target := 1
			if self {
				target = 0
			}
			if closing == "UnlockAll" {
				win.LockAll(AssertNone)
			} else {
				win.Lock(target, LockShared, AssertNone)
			}
			one := PutFloat64s([]float64{1})
			for i := 0; i < 3; i++ {
				win.Accumulate(one, target, 0, Scalar(Float64), OpSum)
			}
			res := make([]byte, 8)
			five := PutFloat64s([]float64{5})
			switch kind {
			case KindGet:
				win.Get(res, target, 0, Scalar(Float64))
			case KindGetAcc:
				win.GetAccumulate(five, res, target, 0, Scalar(Float64), OpSum)
			case KindFetchOp:
				win.FetchAndOp(five, res, target, 0, Float64, OpSum)
			case KindCAS:
				win.CompareAndSwap(PutFloat64s([]float64{13}), five, res, target, 0, Float64)
			case KindPut:
				win.Put(five, target, 0, Scalar(Float64))
			case KindAcc:
				win.Accumulate(five, target, 0, Scalar(Float64), OpSum)
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
			got = GetFloat64s(res[:8])[0]
			at = r.Now()
			if closing == "Flush" {
				win.Unlock(target)
			}
		}
		c.Barrier()
	})
	return got, at
}

// TestIssueItemSize holds what a queueing rank's block costs: every item
// kind shares one 144-byte item, 36 of them per rank (the bound, the
// settling call's slot and room for an expansion), so a field added for
// one kind is paid by all.
func TestIssueItemSize(t *testing.T) {
	if n := unsafe.Sizeof(issueItem{}); n > 144 {
		t.Fatalf("issueItem is %d bytes, want at most 144", n)
	}
}

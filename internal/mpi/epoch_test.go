package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Passive-target epochs are one implementation reached three ways:
// Lock/Unlock (one call each), LockEach/UnlockEach (n calls each, their
// rank-local entry costs settled in chains) and the same under
// NoSimFastPath, where every chain is the plain Advance loop. The tests
// below hold the three to one timeline.

// epochScenario is one cell of the epoch table: how the epoch opens, what
// happens inside it, and that it closes with the matching call.
type epochScenario struct {
	lockAll bool     // LockAll/UnlockAll instead of Lock/Unlock
	eager   bool     // platform acquires at MPI_Win_lock (LockLazy off)
	self    bool     // the target is the origin itself (always eager)
	lt      LockType // Lock only; LockAll is shared
	action  string
}

func (sc epochScenario) String() string {
	kind, acq, target := "lock", "lazy", "remote"
	if sc.lockAll {
		kind = "lockall"
	}
	if sc.eager {
		acq = "eager"
	}
	if sc.self {
		target = "self"
	}
	return fmt.Sprintf("%s/%s/%s/%v/%s", kind, acq, target, sc.lt, sc.action)
}

var epochActions = []string{"none", "acc", "acc,acc", "acquire", "acquire,acc", "acc,flush,acc"}

// epochOutcome is what one run of a scenario exposes.
type epochOutcome struct {
	ends    [4]sim.Time // per rank, before the closing barrier
	sum     float64     // the accumulated element at the op target
	summary WorldSummary
	events  int64
}

// runEpochScenario runs sc on 4 ranks over 2 nodes. Rank 0 is the origin:
// it opens the epoch on targets {1, 2, 3} (or on itself), acts on the
// middle one — so a bulk close owes a call before it and one after — and
// closes. Rank 3 holds an exclusive lock on that same target for the
// first 20us, so the origin's request queues behind it at the manager.
func runEpochScenario(t *testing.T, sc epochScenario, bulk, noFast bool) epochOutcome {
	t.Helper()
	cfg := testConfig(4, 2)
	net := *netmodel.CrayXC30()
	net.LockLazy = !sc.eager
	cfg.Net = &net
	cfg.NoSimFastPath = noFast
	targets, opTarget := []int{1, 2, 3}, 2
	if sc.self {
		targets, opTarget = []int{0}, 0
	}
	var out epochOutcome
	one := PutFloat64s([]float64{1})
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocateRegion(c, 8, nil)
		c.Barrier()
		switch r.Rank() {
		case 0:
			switch {
			case sc.lockAll:
				win.LockAll(AssertNone)
			case bulk:
				win.LockEach(targets, sc.lt, AssertNone)
			default:
				for _, tg := range targets {
					win.Lock(tg, sc.lt, AssertNone)
				}
			}
			for _, step := range strings.Split(sc.action, ",") {
				switch step {
				case "acc":
					win.Accumulate(one, opTarget, 0, Scalar(Float64), OpSum)
				case "flush":
					win.Flush(opTarget)
				case "acquire":
					win.Acquire(opTarget)
				}
			}
			switch {
			case sc.lockAll:
				win.UnlockAll()
			case bulk:
				win.UnlockEach(targets)
			default:
				for _, tg := range targets {
					win.Unlock(tg)
				}
			}
		case 3:
			if !sc.self {
				win.Lock(opTarget, LockExclusive, AssertNone)
				win.Acquire(opTarget)
				r.Compute(20 * sim.Microsecond)
				win.Unlock(opTarget)
			}
		}
		out.ends[r.Rank()] = r.Now()
		c.Barrier()
		if r.Rank() == opTarget {
			out.sum = GetFloat64s(buf)[0]
		}
		win.Free()
	})
	out.summary = w.Summary()
	out.summary.PeakQueueResidency = 0 // scheduler occupancy: what the fast paths change
	out.events = w.Engine().EventsExecuted()
	return out
}

func TestEpochTableBulkMatchesPerCall(t *testing.T) {
	var table []epochScenario
	for _, action := range epochActions {
		for _, eager := range []bool{false, true} {
			table = append(table, epochScenario{lockAll: true, eager: eager, lt: LockShared, action: action})
			for _, lt := range []LockType{LockShared, LockExclusive} {
				table = append(table, epochScenario{eager: eager, lt: lt, action: action})
			}
		}
		for _, lt := range []LockType{LockShared, LockExclusive} {
			table = append(table, epochScenario{self: true, lt: lt, action: action})
		}
		table = append(table, epochScenario{lockAll: true, self: true, lt: LockShared, action: action})
	}
	call := testConfig(4, 2).Net.CallOverhead
	for _, sc := range table {
		if sc.lockAll && (sc.action == "none" || sc.action == "acquire") && sc.self {
			continue // nothing the lockall/self cells add over lockall/remote
		}
		// The reference is the per-call form with every advance a plain
		// park/resume pair.
		want := runEpochScenario(t, sc, false, true)
		for _, v := range []struct{ bulk, noFast bool }{{false, false}, {true, false}, {true, true}} {
			if got := runEpochScenario(t, sc, v.bulk, v.noFast); !reflect.DeepEqual(got, want) {
				t.Errorf("%v bulk=%v noFast=%v:\n got  %+v\n want %+v", sc, v.bulk, v.noFast, got, want)
			}
		}
		if n := float64(strings.Count(sc.action, "acc")); want.sum != n {
			t.Errorf("%v: target holds %v, want %v", sc, want.sum, n)
		}
		// A lazy epoch nobody uses is pure call overhead: three locks and
		// three unlocks, no message, no wait.
		if !sc.lockAll && !sc.eager && !sc.self && sc.action == "none" {
			start := want.ends[1] // ranks 1 and 2 leave the opening barrier and record at once
			if d := want.ends[0].Sub(start); d != 6*call {
				t.Errorf("%v: unused lazy epoch took %v, want 6 calls = %v", sc, d, 6*call)
			}
		}
		// The origin's request sat behind rank 3's exclusive hold whenever
		// it was sent at all.
		if !sc.self && (sc.eager && !sc.lockAll || sc.action != "none") && want.ends[0] < want.ends[3] {
			t.Errorf("%v: origin closed at %v, before the exclusive holder released at %v",
				sc, want.ends[0], want.ends[3])
		}
	}
}

// expectPanic runs main on 4 ranks and asserts it panics with a message
// containing want.
func expectPanic(t *testing.T, name, want string, main func(r *Rank, win *Win)) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", name)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q does not mention %q", name, msg, want)
		}
	}()
	mustRun(t, testConfig(4, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocateRegion(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			main(r, win)
		}
		c.Barrier()
	})
}

func TestEpochMisusePanics(t *testing.T) {
	one := PutFloat64s([]float64{1})
	acc := func(win *Win, tg int) { win.Accumulate(one, tg, 0, Scalar(Float64), OpSum) }
	cases := []struct {
		name, want string
		main       func(r *Rank, win *Win)
	}{
		{"nested Lock", "nested Lock to target 1", func(r *Rank, win *Win) {
			win.Lock(1, LockShared, AssertNone)
			win.Lock(1, LockShared, AssertNone)
		}},
		{"nested Lock after use", "nested Lock to target 1", func(r *Rank, win *Win) {
			win.Lock(1, LockExclusive, AssertNone)
			acc(win, 1)
			win.Lock(1, LockShared, AssertNone)
		}},
		{"LockEach naming a target twice", "nested Lock to target 2", func(r *Rank, win *Win) {
			win.LockEach([]int{1, 2, 2}, LockShared, AssertNone)
		}},
		{"Unlock without Lock", "Unlock of target 1 without Lock", func(r *Rank, win *Win) {
			win.Unlock(1)
		}},
		{"second Unlock", "Unlock of target 1 without Lock", func(r *Rank, win *Win) {
			win.Lock(1, LockShared, AssertNone)
			acc(win, 1)
			win.Unlock(1)
			win.Unlock(1)
		}},
		{"UnlockEach past the locked targets", "Unlock of target 3 without Lock", func(r *Rank, win *Win) {
			win.LockEach([]int{1, 2}, LockShared, AssertNone)
			win.UnlockEach([]int{1, 2, 3})
		}},
		{"Unlock of a LockAll target", "Unlock of target 1 without Lock", func(r *Rank, win *Win) {
			win.LockAll(AssertNone)
			acc(win, 1)
			win.Unlock(1)
		}},
		{"op outside an epoch", "ACC to target 1 without an epoch", func(r *Rank, win *Win) {
			acc(win, 1)
		}},
		{"op after Unlock", "ACC to target 1 without an epoch", func(r *Rank, win *Win) {
			win.Lock(1, LockShared, AssertNone)
			win.Unlock(1)
			acc(win, 1)
		}},
		{"op to an unlocked neighbour", "ACC to target 2 without an epoch", func(r *Rank, win *Win) {
			win.Lock(1, LockShared, AssertNone)
			acc(win, 2)
		}},
		{"Flush outside an epoch", "Flush of target 1 without passive epoch", func(r *Rank, win *Win) {
			win.Flush(1)
		}},
		{"Acquire outside an epoch", "Acquire of target 1 without passive epoch", func(r *Rank, win *Win) {
			win.Acquire(1)
		}},
		{"Lock out of range", "window target 4 out of range", func(r *Rank, win *Win) {
			win.Lock(4, LockShared, AssertNone)
		}},
	}
	for _, c := range cases {
		expectPanic(t, c.name, c.want, c.main)
	}
}

// TestLockFairnessFIFO: requests to one target are granted in arrival
// order. A shared request that arrives behind a queued exclusive one
// waits for it even though it is compatible with the current shared
// holder, and a run of shared requests is admitted together.
func TestLockFairnessFIFO(t *testing.T) {
	type span struct{ acquired, released sim.Time }
	spans := make([]span, 6)
	var start sim.Time
	mustRun(t, testConfig(6, 6), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		start = r.Now()
		hold := func(after sim.Duration, lt LockType, d sim.Duration) {
			r.Compute(after)
			win.Lock(0, lt, AssertNone)
			win.(*Win).Acquire(0)
			spans[r.Rank()].acquired = r.Now()
			r.Compute(d)
			spans[r.Rank()].released = r.Now()
			win.Unlock(0)
		}
		switch r.Rank() {
		case 1:
			hold(0, LockShared, 40*sim.Microsecond)
		case 2:
			hold(5*sim.Microsecond, LockExclusive, 10*sim.Microsecond)
		case 3:
			hold(10*sim.Microsecond, LockShared, 10*sim.Microsecond) // compatible with 1, but behind 2
		case 4:
			hold(15*sim.Microsecond, LockShared, 10*sim.Microsecond)
		case 5:
			hold(20*sim.Microsecond, LockExclusive, 10*sim.Microsecond)
		}
		c.Barrier()
	})
	s := spans
	if s[1].acquired.Sub(start) >= 5*sim.Microsecond {
		t.Errorf("first shared request waited: %+v", s[1])
	}
	if s[2].acquired < s[1].released {
		t.Errorf("exclusive granted at %v under a shared hold released at %v", s[2].acquired, s[1].released)
	}
	for _, i := range []int{3, 4} {
		if s[i].acquired < s[2].released {
			t.Errorf("shared rank %d overtook the exclusive queued ahead of it: %+v vs %+v", i, s[i], s[2])
		}
	}
	if s[4].acquired > s[3].released {
		t.Errorf("shared ranks 3 and 4 were serialized: %+v, %+v", s[3], s[4])
	}
	if s[5].acquired < s[3].released || s[5].acquired < s[4].released {
		t.Errorf("last exclusive granted under shared holds: %+v vs %+v, %+v", s[5], s[3], s[4])
	}
}

// TestChanStateSize: one more word would move every channel of an
// all-to-all epoch into the next allocation size class.
func TestChanStateSize(t *testing.T) {
	if n := unsafe.Sizeof(chanState{}); n > 128 {
		t.Fatalf("chanState is %d bytes, want at most 128", n)
	}
}

// TestRMAOpSize: an all-to-all backlog is thousands of these at once; the
// header, inline payload and queue link included, stays within the
// 224-byte size class.
func TestRMAOpSize(t *testing.T) {
	if n := unsafe.Sizeof(rmaOp{}); n > 224 {
		t.Fatalf("rmaOp is %d bytes, want at most 224", n)
	}
	if n := unsafe.Sizeof(faultOp{}); n > 320 {
		t.Fatalf("an op of a fault-plan world is %d bytes, want at most 320", n)
	}
	// A CAS keeps its origin and compare values side by side in the
	// inline payload, one basic element each.
	for _, b := range []BasicType{Byte, Int32, Int64, Float64} {
		if b.Size() > opInline/2 {
			t.Fatalf("%v does not fit half the %d-byte inline payload", b, opInline)
		}
	}
}

// TestEpochAllocations guards what an epoch costs the host: opening and
// closing an epoch on a lazy target nobody uses allocates nothing, and
// one whose lock is requested allocates its channel state and nothing
// else — no request object, no closures.
func TestEpochAllocations(t *testing.T) {
	var untouched, requested, bulk float64
	// The scheduler costs these counts nothing: an emptied ladder bucket's
	// storage goes to the next bucket that fills, so by the end of
	// AllocsPerRun's warm-up call the wheel owns all the storage that a
	// handful of pending events needs, wherever the clock has got to.
	mustRun(t, testConfig(4, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocateRegion(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			untouched = testing.AllocsPerRun(50, func() {
				win.Lock(2, LockShared, AssertNone)
				win.Unlock(2)
			})
			targets := []int{1, 2, 3}
			bulk = testing.AllocsPerRun(50, func() {
				win.LockEach(targets, LockShared, AssertNone)
				win.UnlockEach(targets)
			})
			requested = testing.AllocsPerRun(50, func() {
				win.Lock(2, LockExclusive, AssertNone)
				win.Acquire(2)
				win.Unlock(2)
			})
		}
		c.Barrier()
		win.Free()
	})
	if untouched != 0 || bulk != 0 {
		t.Errorf("untouched lazy epoch allocates %v objects (bulk over 3 targets: %v), want 0", untouched, bulk)
	}
	if requested != 1 {
		t.Errorf("requested epoch allocates %v objects, want 1 (the channel state)", requested)
	}
}

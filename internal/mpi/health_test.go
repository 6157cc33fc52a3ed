package mpi

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// The two-phase failure detector must tell a stalled ghost from a
// crashed one: both go silent past the grace period, but only the crash
// may be confirmed — a stalled rank still answers transport-level
// probes, and its resumed beacons must clear the suspicion. Confusing
// the two would trigger irrevocable recovery (succession, lock
// reclamation, rebinding) against a rank that is about to wake up.

// TestStallSuspectedNeverConfirmed stalls a tracked rank for well over
// the grace period. The detector must suspect it, keep probing, and
// clear the suspicion when the stall lifts — never confirming death.
func TestStallSuspectedNeverConfirmed(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Fault = &fault.Plan{Seed: 3, Stalls: []fault.Stall{
		// 3x the 80us grace period of beacon silence.
		{Rank: 1, At: sim.Time(30 * sim.Microsecond), Duration: 240 * sim.Microsecond},
	}}
	w := mustRun(t, cfg, func(r *Rank) {
		r.World().TrackHealth([]int{1})
		c := r.CommWorld()
		c.Barrier()
		// Keep the world alive through stall, suspicion and recovery.
		r.Compute(sim.Microseconds(500))
		c.Barrier()
	})
	s := w.Summary()
	if w.HealthFailed(1) {
		t.Fatal("stalled rank confirmed dead: probes or beacon hysteresis broken")
	}
	if s.RanksFailed != 0 {
		t.Fatalf("RanksFailed = %d for a stall-only plan", s.RanksFailed)
	}
	if s.Suspects == 0 {
		t.Fatal("a stall 3x the grace period never raised suspicion")
	}
	if s.FalseSuspects == 0 {
		t.Fatal("resumed beacons did not clear the suspicion as a false suspect")
	}
}

// TestCrashSuspectedThenConfirmed crashes a tracked rank. The detector
// must pass through the suspect phase (probes go unanswered) and then
// confirm, firing HealthFailed — with no false-suspect hysteresis.
func TestCrashSuspectedThenConfirmed(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{
		{Rank: 1, At: sim.Time(50 * sim.Microsecond)},
	}}
	w := mustRun(t, cfg, func(r *Rank) {
		r.World().TrackHealth([]int{1})
		c := r.CommWorld()
		c.Barrier()
		if r.Rank() == 1 {
			r.Compute(sim.Microseconds(10000)) // parked when the crash fires
			return
		}
		r.Compute(sim.Microseconds(500)) // outlive grace + sweep slack
	})
	s := w.Summary()
	if !w.HealthFailed(1) {
		t.Fatal("crashed rank never confirmed dead")
	}
	if w.HealthSuspected(1) {
		t.Fatal("confirmation left the rank in the suspect phase")
	}
	if s.Suspects == 0 {
		t.Fatal("confirmation skipped the suspect phase")
	}
	if s.FalseSuspects != 0 {
		t.Fatalf("FalseSuspects = %d for a real crash", s.FalseSuspects)
	}
}

// TestLockManagerReclaim exercises the dead-mode transition directly:
// an exclusive hold plus queued waiters must all convert to counted
// shared holds, later requests must grant immediately, and releases
// must stay balanced — no origin may stay parked on a corpse's grant.
func TestLockManagerReclaim(t *testing.T) {
	m, req := lockFixture(t, 3)
	reqs := []*lockMsg{req(0, true), req(1, true), req(2, false)}
	for _, q := range reqs {
		m.request(q)
	}
	if g := grantedOrigins(reqs); len(g) != 1 || g[0] != 0 {
		t.Fatalf("pre-reclaim grants = %v, want only the first", g)
	}
	if n := m.reclaim(); n != 3 {
		t.Fatalf("reclaim() = %d, want 3 (1 hold + 2 waiters)", n)
	}
	if g := grantedOrigins(reqs); len(g) != 3 {
		t.Fatalf("queued waiters not granted on reclaim: %v", g)
	}
	if sh, ex := m.held(); ex || sh != 3 {
		t.Fatalf("post-reclaim holds = %d shared, excl=%v; want 3 shared", sh, ex)
	}
	// Dead mode: new requests grant immediately, even exclusive ones.
	late := req(1, true)
	m.request(late)
	if late.phase != lockPhaseGrant {
		t.Fatal("dead-mode request not granted immediately")
	}
	for i := 0; i < 4; i++ {
		m.release(i%3, i == 0) // modes may mismatch; dead mode tolerates
	}
	if sh, _ := m.held(); sh != 0 {
		t.Fatalf("releases left %d shared holds", sh)
	}
	if n := m.reclaim(); n != 0 {
		t.Fatalf("second reclaim() = %d, want 0 (idempotent)", n)
	}
}

// TestLockReclaimUnblocksWaiters is the world-level version: rank 0
// holds an exclusive lock on rank 2's window when rank 2 crashes, with
// rank 1 queued behind it. Detection must reclaim the manager mid-epoch
// so rank 1's Lock returns while rank 0 still holds — neither origin
// may hang, and the reclaim must be counted on the dead rank.
func TestLockReclaimUnblocksWaiters(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Net.LockLazy = false // eager grants: the hold exists when the crash lands
	cfg.Fault = &fault.Plan{Seed: 3, Crashes: []fault.Crash{
		{Rank: 2, At: sim.Time(60 * sim.Microsecond)},
	}}
	var lockedAt, unlockedAt sim.Time
	w := mustRun(t, cfg, func(r *Rank) {
		r.World().TrackHealth([]int{2})
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		switch r.Rank() {
		case 0:
			win.Lock(2, LockExclusive, AssertNone)
			r.Compute(sim.Microseconds(400)) // hold across crash + detection
			win.Unlock(2)
			unlockedAt = r.Now()
		case 1:
			r.Compute(sim.Microseconds(20)) // queue behind rank 0's hold
			win.Lock(2, LockExclusive, AssertNone)
			lockedAt = r.Now()
			win.Unlock(2)
		case 2:
			r.Compute(sim.Microseconds(10000)) // parked when the crash fires
		}
	})
	s := w.Summary()
	if s.LocksReclaimed != 2 {
		t.Fatalf("LocksReclaimed = %d, want 2 (rank 0's hold + rank 1's wait)", s.LocksReclaimed)
	}
	if lockedAt == 0 || lockedAt >= unlockedAt {
		t.Fatalf("waiter granted at %v, holder released at %v: reclaim waited for the epoch boundary",
			lockedAt, unlockedAt)
	}
}

// TestHeartbeatsAllocateNothingPerBeat: a tracked rank's beacon and the
// monitor sweep are objects re-armed every interval, so a world that idles
// twice as long — thousands more beats and sweeps — allocates no more.
func TestHeartbeatsAllocateNothingPerBeat(t *testing.T) {
	if underRace {
		t.Skip("the race detector allocates on its own account")
	}
	mallocs := func(idle sim.Duration) uint64 {
		cfg := testConfig(4, 4)
		cfg.Fault = &fault.Plan{Seed: 3}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, cfg, func(r *Rank) {
			r.World().TrackHealth([]int{1, 2, 3})
			r.Compute(idle)
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(sim.Millisecond) // warm up whatever the first world pays for
	short, long := mallocs(20*sim.Millisecond), mallocs(40*sim.Millisecond)
	// 20 ms more is 1000 more beats of each of three ranks and 1000 more
	// sweeps; the slack is for the event queue's own growth.
	t.Logf("mallocs: %d idling 20 ms, %d idling 40 ms", short, long)
	if long > short+50 {
		t.Fatalf("%d mallocs idling 20 ms, %d idling 40 ms: heartbeats allocate", short, long)
	}
}

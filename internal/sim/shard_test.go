package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// forceParallel raises GOMAXPROCS to at least n for the duration of a
// test so worker goroutines really interleave. Returns a restore func
// for defer. NewShardGroup additionally clamps its spawned workers to
// the physical core count, which no test can raise — tests that need
// the multi-worker barrier paths on a small machine re-spawn past the
// clamp with g.spawnWorkers (safe before the first Run).
func forceParallel(n int) func() {
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
	}
	return func() { runtime.GOMAXPROCS(old) }
}

// runShardScenario runs a fixed 4-shard workload — processes advancing
// by per-engine random draws and injecting callbacks into each other's
// shards — and returns a transcript of everything each shard observed.
func runShardScenario(t *testing.T, workers int) ([]string, int64) {
	t.Helper()
	defer forceParallel(4)()
	const nsh = 4
	engines := make([]*Engine, nsh)
	for i := range engines {
		engines[i] = New(int64(100 + i))
	}
	g := NewShardGroup(engines, Microseconds(1), workers)
	g.spawnWorkers(workers - 1)
	logs := make([][]string, nsh)
	for i := range engines {
		i, e := i, engines[i]
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 60; k++ {
				p.Advance(Duration(e.Rand().Int63n(int64(Microseconds(3)))) + 1)
				dst := (i + 1 + k) % nsh
				at := e.Now().Add(Microseconds(1) + Duration(k))
				src, val := i, k
				g.Inject(e, engines[dst], at, func() {
					logs[dst] = append(logs[dst],
						fmt.Sprintf("shard%d t=%v from=%d k=%d", dst, engines[dst].Now(), src, val))
				})
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return all, g.EventsExecuted()
}

// TestShardGroupWorkerCountIdentical is the sharded analogue of the
// parallel-sweep determinism test: the observable execution — every
// cross-shard delivery, in order, with its virtual timestamp — must be
// identical for any worker count.
func TestShardGroupWorkerCountIdentical(t *testing.T) {
	base, baseEvents := runShardScenario(t, 1)
	if len(base) == 0 {
		t.Fatal("scenario produced no cross-shard deliveries")
	}
	for _, w := range []int{2, 3, 4, 8} {
		got, gotEvents := runShardScenario(t, w)
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("workers=%d transcript differs from workers=1", w)
		}
		if gotEvents != baseEvents {
			t.Fatalf("workers=%d executed %d events, workers=1 executed %d", w, gotEvents, baseEvents)
		}
	}
}

// TestShardGroupLookaheadViolationPanics: injecting closer than the
// window is a cost-model bug and must die loudly.
func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	engines := []*Engine{New(1), New(2)}
	g := NewShardGroup(engines, Microseconds(1), 1)
	engines[0].Spawn("violator", func(p *Proc) {
		g.Inject(engines[0], engines[1], engines[0].Now().Add(Microseconds(1)-1), func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sub-lookahead injection did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "violates lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Run()
	t.Fatal("unreachable: Run returned")
}

// TestShardGroupBudgetReportsHorizons: the barrier-checked event budget
// trips on a cross-shard ping-pong that never drains, and the error
// carries the per-shard horizon report (the sharded frozen-clock
// diagnostic).
func TestShardGroupBudgetReportsHorizons(t *testing.T) {
	engines := []*Engine{New(1), New(2), New(3)}
	g := NewShardGroup(engines, Microseconds(1), 2)
	g.SetEventBudget(500)
	var ping func(dst int)
	ping = func(dst int) {
		e := engines[dst]
		next := (dst + 1) % len(engines)
		g.Inject(e, engines[next], e.Now().Add(Microseconds(1)), func() { ping(next) })
	}
	engines[0].Spawn("kickoff", func(p *Proc) { ping(0) })
	// A parked process keeps the group formally alive so the ping-pong
	// cannot end in a normal drain.
	var never Completion
	engines[1].Spawn("waiter", func(p *Proc) { never.Await(p, "waiting forever") })
	err := g.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("expected WatchdogError, got %v", err)
	}
	if !strings.Contains(we.Error(), "per-shard horizons:") {
		t.Fatalf("budget error lacks per-shard horizon report:\n%v", we)
	}
	if !strings.Contains(we.Error(), "blocking shard") {
		t.Fatalf("budget error lacks blocking-shard line:\n%v", we)
	}
}

// TestShardGroupStallWatchdogEnriched: a per-engine stall (frozen
// clock inside one shard) is reported with every shard's horizon and
// the blocking shard's next event, not just a single timestamp.
func TestShardGroupStallWatchdogEnriched(t *testing.T) {
	engines := []*Engine{New(1), New(2)}
	g := NewShardGroup(engines, Microseconds(1), 2)
	engines[0].SetStallWatchdog(100)
	var spin func()
	spin = func() { engines[0].At(engines[0].Now(), spin) }
	engines[0].Spawn("spinner", func(p *Proc) { spin() })
	engines[1].Spawn("healthy", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(Microseconds(5))
		}
	})
	err := g.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("expected WatchdogError, got %v", err)
	}
	msg := we.Error()
	if !strings.Contains(msg, "stalled") {
		t.Fatalf("expected stall trip, got: %v", msg)
	}
	for _, want := range []string{"per-shard horizons:", "shard 0:", "shard 1:", "blocking shard"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stall report missing %q:\n%v", want, msg)
		}
	}
}

// runSparseScenario is a horizon-skipping workload: shard 0 grinds
// through thousands of closely spaced local events across a long
// virtual span, with only an occasional cross-shard injection; shard 1
// is otherwise idle. With fixed lookahead-wide windows the run costs
// one barrier per window across the whole span; with adaptive limits
// it costs a handful of barriers around each injection.
func runSparseScenario(t *testing.T, fixed bool, workers int) ([]string, int64) {
	t.Helper()
	defer forceParallel(4)()
	engines := []*Engine{New(1), New(2)}
	g := NewShardGroup(engines, Microseconds(1), workers)
	g.spawnWorkers(workers - 1)
	g.fixedWin = fixed
	var log []string
	e0 := engines[0]
	e0.Spawn("busy", func(p *Proc) {
		for k := 0; k < 2000; k++ {
			p.Advance(Duration(500)) // 0.5 us: two local events per window width
			if k%200 == 0 {
				at := e0.Now().Add(Microseconds(1))
				k := k
				g.Inject(e0, engines[1], at, func() {
					log = append(log, fmt.Sprintf("t=%v k=%d", engines[1].Now(), k))
				})
			}
		}
	})
	if err := g.Run(); err != nil {
		t.Fatalf("fixed=%v workers=%d: %v", fixed, workers, err)
	}
	return log, g.Rounds()
}

// TestShardGroupHorizonSkipping: on the sparse workload, adaptive
// per-shard limits must cut the barrier count by at least 10x versus
// fixed lookahead-wide windows, with a byte-identical transcript at
// every (mode, worker-count) combination.
func TestShardGroupHorizonSkipping(t *testing.T) {
	base, fixedRounds := runSparseScenario(t, true, 1)
	if len(base) != 10 {
		t.Fatalf("expected 10 cross-shard deliveries, got %d", len(base))
	}
	var skipRounds int64
	for _, w := range []int{1, 2, 4} {
		for _, fixed := range []bool{true, false} {
			got, rounds := runSparseScenario(t, fixed, w)
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Fatalf("fixed=%v workers=%d transcript differs from baseline", fixed, w)
			}
			if !fixed {
				skipRounds = rounds
			}
		}
	}
	if skipRounds*10 > fixedRounds {
		t.Fatalf("horizon skipping used %d barriers, fixed windows %d: want >= 10x reduction",
			skipRounds, fixedRounds)
	}
}

// TestShardBarrierStress drives the sense-reversing barrier through
// thousands of windows at randomized shard counts and per-window event
// loads, at several worker counts per workload. A lost wakeup hangs the
// test (caught by the go test timeout); nondeterminism in the limit
// logic shows up as diverging event counts, barrier counts, or final
// horizons between worker counts. Run under -race in CI, with
// GOMAXPROCS forced up so the workers really interleave.
func TestShardBarrierStress(t *testing.T) {
	defer forceParallel(4)()
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nsh := 2 + rng.Intn(7)         // 2..8 shards
			iters := 1600 + rng.Intn(1000) // per-shard injection count
			run := func(workers int) (events, rounds int64, horizon Time) {
				engines := make([]*Engine, nsh)
				for i := range engines {
					engines[i] = New(seed*100 + int64(i))
				}
				g := NewShardGroup(engines, Microseconds(1), workers)
				g.spawnWorkers(workers - 1)
				for i := range engines {
					i, e := i, engines[i]
					e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
						for k := 0; k < iters; k++ {
							p.Advance(Duration(e.Rand().Int63n(int64(Microseconds(2)))) + 1)
							dst := int(e.Rand().Int63n(int64(nsh)))
							if dst == i {
								continue
							}
							at := e.Now().Add(Microseconds(1) + Duration(e.Rand().Int63n(1000)))
							g.Inject(e, engines[dst], at, func() {})
						}
					})
				}
				if err := g.Run(); err != nil {
					t.Fatalf("shards=%d workers=%d: %v", nsh, workers, err)
				}
				return g.EventsExecuted(), g.Rounds(), g.Horizon()
			}
			be, br, bh := run(1)
			if br < 1000 {
				t.Fatalf("stress workload too tame: only %d windows", br)
			}
			for _, w := range []int{2, nsh, 2 * nsh} {
				ev, ro, ho := run(w)
				if ev != be || ro != br || ho != bh {
					t.Fatalf("workers=%d diverged: events %d/%d rounds %d/%d horizon %v/%v",
						w, ev, be, ro, br, ho, bh)
				}
			}
		})
	}
}

// TestShardGroupDeadlockMerged: a cross-shard deadlock merges every
// shard's stuck processes into one report.
func TestShardGroupDeadlockMerged(t *testing.T) {
	engines := []*Engine{New(1), New(2)}
	g := NewShardGroup(engines, Microseconds(1), 2)
	var c0, c1 Completion
	engines[0].Spawn("a", func(p *Proc) { c0.Await(p, "waiting on b") })
	engines[1].Spawn("b", func(p *Proc) { c1.Await(p, "waiting on a") })
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Stuck) != 2 {
		t.Fatalf("expected 2 stuck processes, got %v", de.Stuck)
	}
}

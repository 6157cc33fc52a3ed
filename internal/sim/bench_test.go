package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventLoop measures the raw event-loop hot path: an engine
// executing a long chain of timer events with a pair of processes
// ping-ponging through park/resume. ns/op and allocs/op are per
// *event*, the unit every simulated microsecond of every experiment
// pays. The perf baseline in BENCH_*.json tracks this number; see
// EXPERIMENTS.md ("Performance methodology").
func BenchmarkEventLoop(b *testing.B) {
	b.Run("timers", func(b *testing.B) {
		b.ReportAllocs()
		e := New(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				e.After(Microsecond, tick)
			}
		}
		e.At(0, tick)
		e.MustRun()
		if n != b.N && b.N > 0 {
			b.Fatalf("executed %d ticks, want %d", n, b.N)
		}
	})
	// Two processes alternating via Advance: every iteration is one
	// park + one resume, the context-switch path of every simulated
	// MPI call.
	b.Run("advance", func(b *testing.B) {
		b.ReportAllocs()
		e := New(1)
		body := func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(Microsecond)
			}
		}
		e.Spawn("a", body)
		e.Spawn("b", body)
		e.MustRun()
	})
	// Signal wait/broadcast round trips: the synchronization primitive
	// under every blocking MPI call in the runtime.
	b.Run("signal", func(b *testing.B) {
		b.ReportAllocs()
		e := New(1)
		var sig Signal
		turn := 0
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn <= i {
					sig.Wait(p, "turn")
				}
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(Microsecond)
				turn++
				sig.Broadcast()
			}
		})
		e.MustRun()
	})
}

// BenchmarkScheduler is the isolated A/B for the event scheduler: a
// classic hold-model churn (steady queue of W pending events, each
// iteration pops the minimum and pushes a successor at a randomized
// future offset) through the ladder and the heap oracle, at working-set
// sizes bracketing what experiments actually hold (see
// Engine.PeakQueueResidency). The offset distribution mirrors the cost
// models: mostly sub-microsecond AM service steps, a tail of multi-us
// transfers, a sliver of far-future housekeeping. The end-to-end number
// that matters is BenchmarkEventLoop / BENCH_*.json; this one localizes
// the scheduler's share.
func BenchmarkScheduler(b *testing.B) {
	for _, w := range []int{16, 64, 256} {
		for _, impl := range []string{"ladder", "heap"} {
			b.Run(fmt.Sprintf("%s/w%d", impl, w), func(b *testing.B) {
				b.ReportAllocs()
				var q schedQ
				q.useHeap = impl == "heap"
				rng := rand.New(rand.NewSource(1))
				offs := make([]Time, 1024) // precomputed so rng cost stays out of the loop
				for i := range offs {
					switch rng.Intn(10) {
					case 0, 1:
						offs[i] = Time(rng.Intn(1 << ladShift))
					case 2:
						offs[i] = Time(rng.Int63n(40 * int64(Microsecond)))
					default:
						offs[i] = Time(rng.Int63n(int64(Microsecond)))
					}
				}
				var now Time
				seq := uint64(0)
				for i := 0; i < w; i++ {
					seq++
					q.push(event{at: now + offs[seq&1023], seq: seq})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := q.pop()
					now = ev.at
					seq++
					q.push(event{at: now + offs[seq&1023], seq: seq})
				}
			})
		}
	}
}

// BenchmarkInlineCompletion isolates the run-to-completion fast path for
// Advance: a lone process with nothing else scheduled advances the clock
// b.N times. "inline" completes every call without parking or touching
// the heap; "parked" forces the classic park → heap push → pop → resume
// round trip via DisableFastPaths. The gap between the two is the
// process-switch tax the fast path removes per MPI-call-shaped event.
func BenchmarkInlineCompletion(b *testing.B) {
	run := func(b *testing.B, fastOff bool) {
		b.ReportAllocs()
		e := New(1)
		if fastOff {
			e.DisableFastPaths()
		}
		e.Spawn("solo", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(Microsecond)
			}
		})
		e.MustRun()
		if !fastOff && e.InlinedAdvances() != int64(b.N) {
			b.Fatalf("inlined %d of %d advances; fast path did not engage", e.InlinedAdvances(), b.N)
		}
		if fastOff && e.InlinedAdvances() != 0 {
			b.Fatalf("inlined %d advances with fast paths disabled", e.InlinedAdvances())
		}
	}
	b.Run("inline", func(b *testing.B) { run(b, false) })
	b.Run("parked", func(b *testing.B) { run(b, true) })
}

// BenchmarkProcSwitch is the cost of handing the simulation from one
// process to another: two processes advance in lockstep, so each of the
// b.N advances parks its caller (event loop takes over) and resumes the
// other process. ns/op is per such switch — two coroutine switches, one
// scheduler push and one pop. Fast paths stay on; neither process can
// advance inline because the other's wake-up is always due first.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	body := func(n int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(Microsecond)
			}
		}
	}
	e.Spawn("a", body((b.N+1)/2))
	e.Spawn("b", body(b.N/2))
	e.MustRun()
	if b.N > 4 && e.InlinedAdvances() > 2 {
		b.Fatalf("%d of %d advances completed inline; the processes did not alternate", e.InlinedAdvances(), b.N)
	}
}

// BenchmarkAdvanceChain is BenchmarkProcSwitch for back-to-back
// advances: two processes in lockstep each consume k durations per round,
// so no step can complete inline. "chain" hands the k steps to the engine
// and parks once per round; "plain" is the k Advance calls the chain
// stands for, parking at each. ns/op is per step either way — the events,
// keys and clock are identical, only k-1 of k switch pairs are gone.
func BenchmarkAdvanceChain(b *testing.B) {
	for _, k := range []int{2, 8} {
		for _, chain := range []bool{true, false} {
			name := fmt.Sprintf("k=%d", k)
			if !chain {
				name += "/plain"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				e := New(1)
				rounds := (b.N + 2*k - 1) / (2 * k)
				body := func(p *Proc) {
					for i := 0; i < rounds; i++ {
						if chain {
							p.AdvanceRepeat(Microsecond, k)
							continue
						}
						for j := 0; j < k; j++ {
							p.Advance(Microsecond)
						}
					}
				}
				e.Spawn("a", body)
				e.Spawn("b", body)
				e.MustRun()
				if e.InlinedAdvances() > int64(k) {
					b.Fatalf("%d advances completed inline; the processes did not alternate", e.InlinedAdvances())
				}
			})
		}
	}
}

// BenchmarkSameTimeFusion isolates same-time event fusion: a chain of
// b.N callbacks all scheduled at the current instant. "fused" routes
// every equal-timestamp event through the nowQueue ring — no heap
// sift, no wakeup; "heap" (DisableFastPaths) pushes each through the
// priority heap. Execution order is identical either way — only the
// dispatch cost differs.
func BenchmarkSameTimeFusion(b *testing.B) {
	run := func(b *testing.B, fastOff bool) {
		b.ReportAllocs()
		e := New(1)
		if fastOff {
			e.DisableFastPaths()
		}
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				e.At(e.Now(), tick)
			}
		}
		e.At(0, tick)
		e.MustRun()
		if n != b.N && b.N > 0 {
			b.Fatalf("executed %d ticks, want %d", n, b.N)
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, false) })
	b.Run("heap", func(b *testing.B) { run(b, true) })
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEventLoop measures the raw event-loop hot path: an engine
// executing a long chain of timer events with a pair of processes
// ping-ponging through park/resume. ns/op and allocs/op are per
// *event*, the unit every simulated microsecond of every experiment
// pays; see EXPERIMENTS.md ("Performance methodology").
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

// schedOffsets precomputes the hold model's offset distribution, so rng
// cost stays out of the measured loops. It mirrors the cost models: mostly
// sub-microsecond AM service steps, a tail of multi-us transfers.
func schedOffsets() []Time {
	rng := rand.New(rand.NewSource(1))
	offs := make([]Time, 1024)
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
	return offs
}

// holdChurn is the classic hold model: a steady queue of w pending events,
// each of the n iterations pops the minimum and pushes a successor at a
// randomized future offset. It calls filled once the queue holds w.
func holdChurn(q *schedQ, w, n int, filled func()) {
	offs := schedOffsets()
	var now Time
	seq := uint64(0)
	for i := 0; i < w; i++ {
		seq++
		q.push(event{at: now + offs[seq&1023], seq: seq})
	}
	filled()
	for i := 0; i < n; i++ {
		ev := q.pop()
		now = ev.at
		seq++
		q.push(event{at: now + offs[seq&1023], seq: seq})
	}
}

// timersFirstChurn is the shape of a fault-plan world: w resident timers
// (retransmit timers, heartbeats) some 3 us apart out to 3w us ahead of the
// clock, armed again as they fire, under near-future churn that comes in
// bursts — push until w events lie within the next microsecond, pop until
// none does — so the queue keeps draining back to the timers. Every drain
// makes the scheduler look ahead to the earliest timer, microseconds away,
// and the whole next burst lands before it: the case a wheel anchored at
// its look-ahead bucket has no buckets for. One iteration is one pop and
// the push that answers it, as in the hold model.
func timersFirstChurn(q *schedQ, w, n int, filled func()) {
	offs := schedOffsets()
	const timer = 1 // event.kind marks the residents
	var now Time
	seq := uint64(0)
	arm := func() {
		seq++
		q.push(event{at: now + Time(w)*(2*Time(Microsecond)+2*offs[seq&1023]%Time(Microsecond)), seq: seq, kind: timer})
	}
	for i := 0; i < w; i++ {
		arm()
	}
	filled()
	for near := 0; n > 0; {
		for ; near < w; near++ {
			seq++
			q.push(event{at: now + offs[seq&1023], seq: seq})
		}
		for ; near > 0 && n > 0; n-- {
			ev := q.pop()
			now = ev.at
			if ev.kind == timer {
				arm()
			} else {
				near--
			}
		}
	}
}

// BenchmarkScheduler isolates the event scheduler: the hold model at
// working-set sizes bracketing what experiments actually hold (see
// Engine.PeakQueueResidency), and the timers-first shape beside it, whose
// cost must stay that of the hold model at an equal working set
// (TestTimersFirstCostsWhatHoldCosts). The end-to-end number that matters
// is `go run ./benchmark`; this one localizes the scheduler's share.
func BenchmarkScheduler(b *testing.B) {
	for _, w := range []int{16, 64, 256, 2048} {
		b.Run(fmt.Sprintf("ladder/w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			holdChurn(&schedQ{}, w, b.N, b.ResetTimer)
		})
	}
	for _, w := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("timers-first/w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			timersFirstChurn(&schedQ{}, w, b.N, b.ResetTimer)
		})
	}
}

// TestTimersFirstCostsWhatHoldCosts requires the timers-first shape to cost
// at most twice the plain hold model holding as many events (w timers and
// up to w near events against 2w): a queue operation must cost what the
// queue holds, wherever the look-ahead left the wheel. The ladder whose
// bottom took every event before the cursor ran it at 2.5x (w = 256) and 4x
// (w = 1024) the hold model; this one runs it at 1.2-1.5x. Timing on a
// shared host is noisy, so the best of three attempts counts.
func TestTimersFirstCostsWhatHoldCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	perOp := func(churn func(*schedQ, int, int, func()), w int) float64 {
		const n = 1 << 20
		var start time.Time
		churn(&schedQ{}, w, n, func() { start = time.Now() })
		return float64(time.Since(start)) / n
	}
	var hold, timers float64
	for try := 0; try < 3; try++ {
		ok := true
		for _, w := range []int{256, 1024} {
			hold, timers = perOp(holdChurn, 2*w), perOp(timersFirstChurn, w)
			if ok = timers <= 2*hold; !ok {
				break
			}
		}
		if ok {
			return
		}
	}
	t.Fatalf("timers-first costs %.0f ns per push+pop, the hold model at the same working set %.0f", timers, hold)
}

// BenchmarkProcSwitch is the cost of handing the simulation from one
// process to another: two processes advance in lockstep, so each of the
// b.N advances parks its caller (event loop takes over) and resumes the
// other process. ns/op is per such switch — two coroutine switches, one
// scheduler push and one pop.
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
	if got := e.EventsExecuted(); got != int64(b.N)+2 {
		b.Fatalf("executed %d events, want %d resumes and 2 starts", got, b.N)
	}
}

// BenchmarkAdvanceChain is BenchmarkProcSwitch for back-to-back
// advances: two processes in lockstep each consume k durations per round.
// "chain" hands the k steps to the engine
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
				if got, want := e.EventsExecuted(), int64(2*rounds*k+2); got != want {
					b.Fatalf("executed %d events, want %d (every step a popped resume, plus 2 starts)", got, want)
				}
			})
		}
	}
}

// benchJob resubmits itself to its server until the shared budget is
// spent; linkedBenchJob is the same job carrying its own queue link.
type benchJob struct {
	s    *Server
	left *int
}

func (j *benchJob) Step() { j.resubmit(j) }

func (j *benchJob) resubmit(self Runner) {
	if *j.left > 0 {
		*j.left--
		j.s.SubmitRun(j.s.eng.now, 100*Nanosecond, self)
	}
}

type linkedBenchJob struct {
	link Link
	benchJob
}

func (j *linkedBenchJob) QueueLink() *Link { return &j.link }
func (j *linkedBenchJob) Step()            { j.resubmit(j) }

// BenchmarkServerBacklog is a serial server with a standing backlog of
// 1024 self-resubmitting jobs — the AM service queue of a saturated
// target — per completed job. "linked" jobs wait through their own link
// (what an RMA op does), "plain" ones through a node of the server's.
func BenchmarkServerBacklog(b *testing.B) {
	const backlog = 1024
	run := func(b *testing.B, job func(s *Server, left *int) Runner) {
		b.ReportAllocs()
		e := New(1)
		s := NewServer(e)
		left := b.N
		for i := 0; i < backlog; i++ {
			s.SubmitRun(0, 100*Nanosecond, job(s, &left))
		}
		b.ResetTimer()
		e.MustRun()
		if left != 0 || s.Jobs() != b.N+backlog {
			b.Fatalf("%d jobs ran with %d left, want %d and 0", s.Jobs(), left, b.N+backlog)
		}
	}
	b.Run("linked", func(b *testing.B) {
		run(b, func(s *Server, left *int) Runner { return &linkedBenchJob{benchJob: benchJob{s: s, left: left}} })
	})
	b.Run("plain", func(b *testing.B) {
		run(b, func(s *Server, left *int) Runner { return &benchJob{s: s, left: left} })
	})
}

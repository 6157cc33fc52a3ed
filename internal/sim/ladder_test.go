package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The ladder queue's correctness contract is exact: pop order by
// (at, seq) must be byte-for-byte what the retained heap produces, or
// every experiment's determinism guarantee dies. These tests drive the
// two structures in lockstep through randomized workloads shaped like
// the engine's real traffic — same-time seq ties, reserved
// (out-of-order) sequence numbers, shard-banded seqs from mailbox
// injection, times on and beside the bucket boundaries of every rung,
// far-future events that land in the last rungs, resident far timers
// under near-future churn — and assert identical pop streams. CI runs them
// under -race; the structures are single-goroutine, so -race here is
// about catching accidental sharing introduced by future refactors, not
// concurrency.

// ladTestOp is one step of a generated workload.
type ladTestOp struct {
	push bool
	ev   event
}

// ladGen builds a push/pop schedule honoring the engine's one scheduling
// invariant: an event is never pushed before the time of the last event
// popped. It keeps its own sorted list of pending keys — the test's oracle
// for "now", independent of both structures under test.
//
// shift is the span parameter: the generator works in the time units of a
// ladder whose rung-0 buckets span 2^shift of them (rung k's 2^(shift+8k)),
// and ops() hands the real ladder every time shifted left by
// ladShift-shift. The real bucket index of a shifted time, on every rung,
// is the index the unshifted time has in that narrower ladder, so the run
// is bit for bit the structure at span 2^shift while ladShift stays a
// constant. (A wider span needs no parameter: it is this ladder on coarser
// times.) Seq assignment mixes the monotone counter with reserved blocks
// (scheduled late, like Server chaining) and high shard bands (like mailbox
// injection).
type ladGen struct {
	rng      *rand.Rand
	shift    uint
	out      []ladTestOp
	now      Time   // time of the last pop
	seq      uint64 // monotone engine counter
	reserved []uint64
	bandSeq  uint64 // per-band counters share one monotone stream
	pending  []evKey
}

func (g *ladGen) ops() []ladTestOp {
	for i := range g.out {
		g.out[i].ev.at <<= ladShift - g.shift
	}
	return g.out
}

// nextSeq draws the next event's sequence number; ok is false when the draw
// only reserved one for later.
func (g *ladGen) nextSeq() (s uint64, ok bool) {
	switch g.rng.Intn(10) {
	case 0, 1:
		// Reserve a seq now, schedule it a few pushes later — the Server
		// chaining pattern that makes seqs arrive out of order.
		g.seq++
		g.reserved = append(g.reserved, g.seq)
		return 0, false
	case 2:
		// Shard-banded seq, as produced by cross-shard mailbox injection
		// (seq = shard<<48 | counter).
		g.bandSeq++
		return uint64(1+g.rng.Intn(3))<<48 | g.bandSeq, true
	}
	if len(g.reserved) > 0 && g.rng.Intn(3) == 0 {
		s = g.reserved[0]
		g.reserved = g.reserved[1:]
		return s, true
	}
	g.seq++
	return g.seq, true
}

func (g *ladGen) push(at Time) {
	s, ok := g.nextSeq()
	if !ok {
		return
	}
	k := evKey{at: at, seq: s}
	lo, hi := 0, len(g.pending)
	for lo < hi {
		m := (lo + hi) / 2
		if g.pending[m].before(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	g.pending = append(g.pending, evKey{})
	copy(g.pending[lo+1:], g.pending[lo:])
	g.pending[lo] = k
	g.out = append(g.out, ladTestOp{push: true, ev: event{at: at, seq: s}})
}

func (g *ladGen) pop() {
	g.out = append(g.out, ladTestOp{})
	g.now = g.pending[0].at
	g.pending = g.pending[1:]
}

// genLadderOps is the adversarial mixture: offsets from "same instant"
// through "the last rung", and a share of times drawn on, just after and
// just before the multiples of 2^(shift+8k) where the buckets of rung k
// start — where a fine and a coarse bucket begin at the same instant.
func genLadderOps(rng *rand.Rand, n int, shift uint) []ladTestOp {
	g := &ladGen{rng: rng, shift: shift}
	for len(g.out) < n {
		if len(g.pending) > 0 && rng.Intn(100) >= 55 {
			g.pop()
			continue
		}
		var at Time
		switch rng.Intn(13) {
		case 0, 1:
			at = g.now // same-instant tie
		case 2, 3, 4:
			at = g.now + Time(rng.Intn(1<<shift)) // inside one bucket
		case 5, 6:
			at = g.now + Time(rng.Intn(64<<shift)) // rung 0 span
		case 7:
			at = g.now + Time(rng.Int63n(1<<(shift+ladBits+3))) // rung 1-2
		case 8:
			at = g.now + Time(rng.Int63n(1<<(shift+4*ladBits))) // high rungs
		case 9:
			if g.now < 1<<54 {
				at = g.now + 1<<44 + Time(rng.Int63n(1<<50)) // last rungs
				break
			}
			fallthrough
		default:
			// A bucket start of rung k, one to three buckets ahead.
			unit := Time(1) << (shift + uint(rng.Intn(4))*ladBits)
			at = (g.now/unit + 1 + Time(rng.Intn(3))) * unit
			switch rng.Intn(4) {
			case 0:
				at-- // last instant of the bucket before
			case 1:
				at += Time(rng.Intn(1 << shift)) // inside its first rung-0 span
			}
		}
		g.push(at)
	}
	return g.ops()
}

// genTimersFirstOps is the fault-plan shape that used to leave the wheel
// anchored ahead of the clock: the residents — far timers (retransmit
// timers, heartbeats) a few hundred ns apart, 100-300 us out — go in first,
// then bursts of near-future churn, and after every burst the queue drains
// back to the timers, so finding the minimum moves the cursor out to them
// and the next burst lands before it. Now and then the clock reaches the
// timers: they all fire and are armed again as far ahead.
func genTimersFirstOps(rng *rand.Rand, n, residents int, shift uint) []ladTestOp {
	g := &ladGen{rng: rng, shift: shift}
	for len(g.out) < n {
		for len(g.pending) < residents {
			g.push(g.now + 100_000 + Time(rng.Intn(200_000)))
		}
		for rounds := 1 + rng.Intn(20); rounds > 0; rounds-- {
			for burst := 1 + rng.Intn(3*ladEarlyMax); burst > 0; burst-- {
				g.push(g.now + Time(rng.Intn(2000)))
				if rng.Intn(4) == 0 {
					g.pop()
				}
			}
			for len(g.pending) > residents {
				g.pop()
			}
		}
		for len(g.pending) > 0 {
			g.pop()
		}
	}
	return g.ops()
}

// genInstantsOps is the lockstep all-to-all shape: hundreds of events on a
// handful of instants inside one rung-0 span, some filed while the span was
// still beyond rung 0's window (they arrive by cascade, after the ones
// pushed directly), so the active bucket is large, holds several times and
// is out of seq order within each — the counting pass's input.
func genInstantsOps(rng *rand.Rand, n int, shift uint) []ladTestOp {
	g := &ladGen{rng: rng, shift: shift}
	for len(g.out) < n {
		span := (g.now>>shift + 2*ladBuckets + Time(rng.Intn(ladBuckets))) << shift
		at := func() Time { return span + Time(rng.Intn(1<<shift)) }
		for i := 20 + rng.Intn(200); i > 0; i-- {
			g.push(at())
		}
		g.push(span - Time(1+rng.Intn(ladBuckets/2))<<shift) // a stepping stone within rung 0's reach of span
		g.pop()
		for i := rng.Intn(200); i > 0; i-- {
			g.push(at())
		}
		for len(g.pending) > 1 { // not to empty: the next push would re-anchor the wheel at itself
			g.pop()
		}
	}
	return g.ops()
}

// lockstep feeds ladder and heap the same ops: every pop must return the
// same (at, seq), between ops the observable minimum must agree, and the
// final drain — refill cascades through every rung in one sweep — must
// match too.
func lockstep(t *testing.T, name string, ops []ladTestOp) {
	t.Helper()
	var lad ladder
	var heap eventHeap
	for i, op := range ops {
		if op.push {
			lad.push(op.ev)
			heap.push(op.ev)
		} else {
			le, he := lad.pop(), heap.pop()
			if le.at != he.at || le.seq != he.seq {
				t.Fatalf("%s op %d: ladder popped (%d,%d), heap popped (%d,%d)",
					name, i, le.at, le.seq, he.at, he.seq)
			}
		}
		if lad.len() != heap.len() {
			t.Fatalf("%s op %d: ladder len %d, heap len %d", name, i, lad.len(), heap.len())
		}
		if lad.len() > 0 {
			if lad.minTime() != heap.minTime() {
				t.Fatalf("%s op %d: ladder minTime %d, heap minTime %d",
					name, i, lad.minTime(), heap.minTime())
			}
			lm := lad.minEvent()
			if lk, hk := (evKey{lm.at, lm.seq}), heap.k[0]; lk != hk {
				t.Fatalf("%s op %d: ladder minKey %+v, heap minKey %+v", name, i, lk, hk)
			}
		}
	}
	for lad.len() > 0 {
		le, he := lad.pop(), heap.pop()
		if le.at != he.at || le.seq != he.seq {
			t.Fatalf("%s drain: ladder popped (%d,%d), heap popped (%d,%d)",
				name, le.at, le.seq, he.at, he.seq)
		}
	}
	if heap.len() != 0 {
		t.Fatalf("%s: heap holds %d events after ladder drained", name, heap.len())
	}
}

// ladTestSpans are the rung-0 spans (as shifts) the lockstep tests run at;
// see ladGen for how a span other than ladShift's is reached.
var ladTestSpans = []uint{0, 2, ladShift}

// TestLadderHeapLockstep is the core differential test.
func TestLadderHeapLockstep(t *testing.T) {
	for _, shift := range ladTestSpans {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 200 + rng.Intn(3000)
			lockstep(t, fmt.Sprintf("span 2^%d seed %d", shift, seed), genLadderOps(rng, n, shift))
		}
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lockstep(t, fmt.Sprintf("instants, span 2^%d seed %d", shift, seed), genInstantsOps(rng, 4000, shift))
		}
	}
}

// TestLadderTimersFirst is the lockstep on the resident-timers shape, whose
// bursts are sized on both sides of ladEarlyMax so the cursor retreats under
// some and not under others.
func TestLadderTimersFirst(t *testing.T) {
	for _, shift := range ladTestSpans {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			residents := 1 + rng.Intn(400)
			lockstep(t, fmt.Sprintf("span 2^%d seed %d", shift, seed), genTimersFirstOps(rng, 8000, residents, shift))
		}
	}
}

// TestLadderCoincidentBucketStarts is the pop the shipped ladder got wrong
// (fig5a at scale 0.5, seed 42, cursor at 10*2^15 under the 2^7 ns span of
// the time): a rung-1 bucket filed from far away and a rung-0 bucket filed
// once the cursor was near start at the same instant, refill kept the
// rung-0 one, and (start+10, seq 4) popped before (start+5, seq 2).
func TestLadderCoincidentBucketStarts(t *testing.T) {
	const start = Time(10) << (ladShift + ladBits) // where rung 1's bucket 10 begins
	var l ladder
	l.push(event{at: start - 2*ladBuckets*ladSpan, seq: 1})
	l.push(event{at: start + 5, seq: 2})          // beyond rung 0's window: rung 1, bucket 10
	l.push(event{at: start - 10*ladSpan, seq: 3}) // brings the cursor within rung 0's window of start
	if ev := l.pop(); ev.seq != 1 {
		t.Fatalf("popped seq %d, want 1", ev.seq)
	}
	l.push(event{at: start + 10, seq: 4}) // rung 0, in the bucket that begins at start too
	for _, want := range []uint64{3, 2, 4} {
		if ev := l.pop(); ev.seq != want {
			t.Fatalf("popped (%d, seq %d), want seq %d", ev.at, ev.seq, want)
		}
	}
}

// ladPlaces maps every pending event's seq to where it is filed: rung and
// bucket slot, or -1 for the bottom.
func ladPlaces(l *ladder) map[uint64]int {
	at := make(map[uint64]int, l.n)
	for _, ev := range l.cur[l.head:] {
		at[ev.seq] = -1
	}
	for k, r := range l.rungs {
		if r == nil {
			continue
		}
		for b := range r.bucket {
			for _, ev := range r.bucket[b] {
				at[ev.seq] = k*ladBuckets + b
			}
		}
	}
	return at
}

// ladMoved counts the events filed somewhere else than before.
func ladMoved(before, after map[uint64]int) (n int) {
	for seq, place := range after {
		if was, ok := before[seq]; ok && was != place {
			n++
		}
	}
	return n
}

// TestLadderPushMovesBounded bounds what one push may move, on the shape
// that used to make the bottom an insertion-sorted array of everything
// pending (every early push then shifted half of it). The bottom holds at
// most ladEarlyMax events from before the cursor plus the active bucket, so
// an insertion shifts no more than that. A push that re-files anything (the
// cursor's retreat) moves the bottom plus events that earlier pops had
// cascaded into the finer rungs or that were pushed since the cursor last
// retreated — never the resident population as such; and over the run,
// pushes re-file less than one event each.
func TestLadderPushMovesBounded(t *testing.T) {
	const residents = 300
	ops := genTimersFirstOps(rand.New(rand.NewSource(3)), 20000, residents, ladShift)
	perSpan := map[Time]int{} // events per rung-0 span: the active bucket's ceiling
	fullest := 0
	for _, op := range ops {
		if op.push {
			s := op.ev.at >> ladShift
			if perSpan[s]++; perSpan[s] > fullest {
				fullest = perSpan[s]
			}
		}
	}
	var l ladder
	pushes, refiled, retreats, deepest, worst := 0, 0, 0, 0, 0
	brought := 0 // pushed, or moved by a pop, since the last retreat
	for i, op := range ops {
		before := ladPlaces(&l)
		if !op.push {
			l.pop()
			brought += ladMoved(before, ladPlaces(&l))
			continue
		}
		l.push(op.ev)
		pushes++
		if depth := len(l.cur) - l.head; depth > ladEarlyMax+fullest {
			t.Fatalf("op %d: the bottom holds %d events, more than ladEarlyMax %d + the fullest span's %d",
				i, depth, ladEarlyMax, fullest)
		} else if depth > deepest {
			deepest = depth
		}
		moved := ladMoved(before, ladPlaces(&l))
		if moved == 0 {
			brought++
			continue
		}
		if moved > ladEarlyMax+fullest+brought {
			t.Fatalf("op %d: one push re-filed %d of %d pending events; %d had been pushed or cascaded since the last retreat",
				i, moved, l.len(), brought)
		}
		retreats++
		refiled += moved
		brought = 0
		if moved > worst {
			worst = moved
		}
	}
	if retreats < 10 {
		t.Fatalf("the cursor retreated %d times: the workload no longer reaches the path under test", retreats)
	}
	if refiled >= pushes || worst >= residents/2 {
		t.Fatalf("%d pushes re-filed %d events, %d at once", pushes, refiled, worst)
	}
	t.Logf("%d pushes, %d retreats re-filing %d events (at most %d at once), deepest bottom %d, fullest span %d",
		pushes, retreats, refiled, worst, deepest, fullest)
}

// TestLadderSchedQ runs the same differential through schedQ — the layer
// the engine actually calls — with the heap as its shadow, so a pop the
// heap disagrees with panics, and checks the peak-residency gauge agrees
// with the test's own high-water count.
func TestLadderSchedQ(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	q := schedQ{shadow: new(eventHeap)}
	depth, peak := 0, 0
	for _, op := range genLadderOps(rng, 4000, ladShift) {
		if op.push {
			q.push(op.ev)
			depth++
			if depth > peak {
				peak = depth
			}
		} else {
			q.pop()
			depth--
		}
	}
	if q.len() != depth || q.peak != peak {
		t.Fatalf("schedQ holds %d events with peak residency %d, want %d and %d", q.len(), q.peak, depth, peak)
	}
}

// TestShadowOracleCatchesMisorder checks the shadow mode itself: a ladder
// that answers with anything but the heap's minimum must panic, naming both.
func TestShadowOracleCatchesMisorder(t *testing.T) {
	q := schedQ{shadow: new(eventHeap)}
	q.push(event{at: 10, seq: 1})
	q.push(event{at: 20, seq: 2})
	q.lad.cur[q.lad.head].at = 30 // corrupt the ladder's copy of the minimum
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "ladder out of (at, seq) order") ||
			!strings.Contains(msg, "it popped (30, seq 1)") || !strings.Contains(msg, "the heap popped (10, seq 1)") {
			t.Fatalf("recovered %q, want the out-of-order report", msg)
		}
	}()
	q.pop()
	t.Fatal("a misordered ladder pop passed the shadow oracle")
}

// TestLadderEngineIdentical runs a full engine workload — randomized
// timer cascades with same-instant bursts, reserved-seq runners, and
// far-future events — with the heap popped in lockstep behind the
// engine's ladder, which panics on the first pop the two disagree on.
// Same-instant events take the ladder like any other, so the shadow must
// have checked a pop for every event the engine executed.
func TestLadderEngineIdentical(t *testing.T) {
	defer SetShadowOracle()()
	e := New(7)
	rng := rand.New(rand.NewSource(7))
	var log []Time
	var tick func()
	n := 0
	tick = func() {
		log = append(log, e.Now())
		n++
		if n >= 5000 {
			return
		}
		// Burst of same-instant events plus a spread of future ones,
		// some via reserved sequence numbers.
		for i := rng.Intn(3); i > 0; i-- {
			e.At(e.Now(), func() { log = append(log, e.Now()) })
		}
		off := Duration(rng.Intn(200 << ladShift))
		if rng.Intn(20) == 0 {
			off = Duration(rng.Int63n(3600 * int64(Second))) // deep rungs
		}
		seq := e.ReserveSeq()
		e.After(off/2+1, tick)
		e.AtRunReserved(e.Now().Add(off), seq, runnerFunc(func() {
			log = append(log, e.Now())
		}))
	}
	e.At(0, tick)
	e.MustRun()
	if len(log) < 5000 || int64(len(log)) != e.EventsExecuted() {
		t.Fatalf("the workload logged %d events and executed %d, want the same count, at least 5000", len(log), e.EventsExecuted())
	}
	if engines, short := TakeShadowShortfalls(); engines != 1 || len(short) > 0 {
		t.Fatalf("%d engines under the oracle, want 1; shortfalls: %v", engines, short)
	}
}

type runnerFunc func()

func (f runnerFunc) Step() { f() }

// TestLadderReanchor covers the drain-to-empty path: after the queue
// empties, the wheel re-anchors at the next push, however far in the
// future, and ordering still holds.
func TestLadderReanchor(t *testing.T) {
	var l ladder
	var h eventHeap
	at := Time(0)
	seq := uint64(0)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		at += Time(rng.Int63n(24 * 3600 * int64(Second)))
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst; i++ {
			seq++
			ev := event{at: at + Time(rng.Intn(1<<20)), seq: seq}
			l.push(ev)
			h.push(ev)
		}
		for l.len() > 0 {
			le, he := l.pop(), h.pop()
			if le.at != he.at || le.seq != he.seq {
				t.Fatalf("round %d: ladder (%v,%d) vs heap (%v,%d)", round, le.at, le.seq, he.at, he.seq)
			}
			if le.at > at {
				at = le.at
			}
		}
	}
}

// TestClockSteppingBackPanics: an event popped from before the clock means
// the scheduler mis-ordered two events; the engine must not run it.
func TestClockSteppingBackPanics(t *testing.T) {
	e := New(1)
	e.At(100, func() { e.events.push(event{at: 50, seq: 99, run: funcRunner(func() {})}) })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "before the clock") {
			t.Fatalf("recovered %q, want the clock-stepping-back panic", msg)
		}
	}()
	e.MustRun()
	t.Fatal("an event from before the clock ran")
}

// freshWorld runs a short world on a new engine: 2000 queued events from
// eight processes, a resident far timer armed at every step.
func freshWorld() {
	e := New(1)
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 125; j++ {
				e.AfterBG(150*Microsecond, func() {})
				p.Advance(Duration(300+37*i+j%11) * Nanosecond)
			}
			p.Advance(200 * Microsecond) // outlive the timers, or they are discarded
		})
	}
	e.MustRun()
	if got := e.EventsExecuted(); got < 2000 {
		panic(fmt.Sprintf("world ran %d events, want at least 2000", got))
	}
}

// TestFreshEngineAllocations pins what a cold engine allocates to run a
// short world, the way TestWindowConstructionAllocatesPerRankNotPerWorld
// pins window setup: the fault rows build hundreds of such worlds per pass,
// each on a new engine, so the scheduler's storage must follow the buckets
// that are occupied together — a few dozen here — not every slot the clock
// sweeps over (growing each swept slot from nothing took 801 objects). An
// engine that never draws leaves its random source unseeded (Rand).
func TestFreshEngineAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(20, freshWorld); got > 304 {
		t.Fatalf("a fresh 2000-event world allocates %.0f objects, want at most 304", got)
	}
}

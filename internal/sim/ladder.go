package sim

import "math/bits"

// This file implements the ladder queue: the engine's default event
// scheduler (see schedQ in engine.go). It replaces the binary/4-ary
// heap family with the bucketed-timestamp structure the DES literature
// settled on for O(1) amortized enqueue/dequeue — a near-future timing
// wheel of FIFO buckets keyed by quantized event time, an overflow
// ladder of geometrically coarser rungs that re-bucket lazily on first
// touch, and a sorted "bottom" holding only the active bucket.
//
// Determinism: the scheduler's contract is to pop the exact global
// minimum by the (at, seq) total order, and every (at, seq) key is
// unique (seq is monotone per engine, banded per shard). Any correct
// implementation therefore yields byte-identical runs — bucketing
// cannot reorder anything a heap would not, it only changes how much
// work finding the minimum costs. The lockstep fuzz in ladder_test.go
// and the shadow oracle (schedQ.shadow) assert exactly that, pop by pop.
//
// Quantization: rung-0 buckets span 2^ladShift = 16 ns, the span the six
// BENCHMARK.json rows run fastest at (EXPERIMENTS.md, "The ladder
// queue"): the lockstep all-to-all rows put hundreds of events on a
// few instants per microsecond, and a bucket holding one or two instants
// mostly arrives in (at, seq) order and is not sorted at all. Each coarser
// rung widens the span by 2^ladBits — 4 us, 1 ms, 268 ms, ... buckets —
// and ladRungs rungs reach 2^(ladShift+ladBits*ladRungs) > 2^63 ns, so the
// last rung's window covers every Time and there is no list beyond it (the
// matrix touches rungs 0-2; a rung is allocated when first filed into).
const (
	ladShift   = 4 // rung-0 bucket span: 2^4 ns
	ladSpan    = 1 << ladShift
	ladBits    = 8 // buckets per rung: 2^8
	ladBuckets = 1 << ladBits
	ladMask    = ladBuckets - 1
	ladRungs   = 8

	// ladEarlyMax bounds the events the bottom may hold from before the
	// cursor. Finding the minimum moves the cursor to the earliest queued
	// bucket, which may lie far past the clock (a retransmit timer, a
	// heartbeat); what the running processes then schedule lands before
	// the cursor, where the wheel has no buckets, and is merge-inserted
	// into the bottom. A few such events are cheapest kept there — the next
	// pops take them — but left unbounded the bottom becomes an
	// insertion-sorted array of everything pending until the clock reaches
	// the cursor. Past this many, push moves the cursor back under them
	// (retreat) and they go to the wheel like any other event.
	ladEarlyMax = 8
)

// ladRung is one wheel level: ladBuckets FIFO buckets plus an
// occupancy bitmap so find-first-non-empty is a handful of word scans
// instead of a 256-slot walk. A slot owns storage only while occupied.
type ladRung struct {
	bucket [ladBuckets][]event
	occ    [ladBuckets / 64]uint64
	count  int
}

// firstFrom returns the absolute index of the first occupied bucket at
// or after absolute index base. All occupied buckets lie in the window
// [base, base+ladBuckets), so the circular bitmap scan is unambiguous.
// The rung must be non-empty.
func (r *ladRung) firstFrom(base uint64) uint64 {
	s := int(base & ladMask)
	w := s >> 6
	if word := r.occ[w] &^ (1<<uint(s&63) - 1); word != 0 {
		return base + uint64(w<<6+bits.TrailingZeros64(word)-s)
	}
	for i := 1; i <= len(r.occ); i++ {
		wi := (w + i) & (len(r.occ) - 1)
		if word := r.occ[wi]; word != 0 {
			d := (wi<<6 + bits.TrailingZeros64(word) - s) & ladMask
			return base + uint64(d)
		}
	}
	panic("sim: ladder rung bitmap empty with count > 0")
}

// take empties bucket b and returns its events, storage and all.
func (r *ladRung) take(b int) []event {
	box := r.bucket[b]
	r.bucket[b] = nil
	r.occ[b>>6] &^= 1 << uint(b&63)
	r.count -= len(box)
	return box
}

// ladder is the queue proper. The wheel is positioned by cursor: rung k
// holds events whose rung-k bucket index lies within ladBuckets of the
// cursor's, each event in the lowest rung that covers it, and nothing in
// the wheel is earlier than curHi. Everything earlier is in the bottom, so
// when n > 0 the bottom is non-empty — pop refills it eagerly — the
// minimum is cur[head] and minTime is O(1).
type ladder struct {
	cur    []event // bottom: every event before curHi, ascending by (at, seq)
	head   int     // consumed prefix of cur
	cursor Time    // start of the active bucket's span (wheel position)
	curHi  Time    // exclusive end of the active bucket's span
	n      int
	rungs  [ladRungs]*ladRung
	// free is the storage of emptied buckets, handed to the next slots that
	// fill: what the wheel allocates follows the buckets occupied at once,
	// not the slots the clock sweeps over (a fault-plan pass builds
	// hundreds of short worlds, each sweeping every slot of two rungs).
	free [][]event
}

func (l *ladder) len() int { return l.n }

// push inserts ev. Events before the end of the active bucket's span are
// merge-inserted into the sorted bottom; everything else is an O(1)
// bucket append.
func (l *ladder) push(ev event) {
	if l.n == 0 {
		// Empty queue: re-anchor the wheel at the event. The common
		// near-empty regime therefore lives entirely in the bottom.
		l.anchor(ev.at)
		l.cur = append(l.cur[:0], ev)
		l.head = 0
		l.n = 1
		return
	}
	l.n++
	if ev.at >= l.curHi {
		l.spill(ev)
		return
	}
	// The bottom is sorted, so ladEarlyMax pending events from before the
	// cursor show as the ladEarlyMax-th pending one lying before it.
	if i := l.head + ladEarlyMax - 1; ev.at < l.cursor && i < len(l.cur) && l.cur[i].at < l.cursor {
		l.retreat(ev)
		return
	}
	l.insertCur(ev)
}

// anchor positions the wheel at the bucket holding t.
func (l *ladder) anchor(t Time) {
	l.cursor = t &^ (ladSpan - 1)
	l.curHi = l.cursor + ladSpan
}

// insertCur merge-inserts ev into the sorted bottom: binary search, then
// whichever side of the insertion point is shorter moves over by one — the
// consumed prefix is the room on the left, so an event that precedes
// everything (the resume-chain case) costs one store.
func (l *ladder) insertCur(ev event) {
	k := evKey{at: ev.at, seq: ev.seq}
	cur := l.cur
	lo, hi := l.head, len(cur)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if (evKey{at: cur[m].at, seq: cur[m].seq}).before(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if l.head > 0 && lo-l.head <= len(cur)-lo {
		copy(cur[l.head-1:], cur[l.head:lo])
		l.head--
		cur[lo-1] = ev
		return
	}
	cur = append(cur, event{})
	copy(cur[lo+1:], cur[lo:])
	cur[lo] = ev
	l.cur = cur
}

// spill files ev into the lowest rung whose window (relative to the
// wheel cursor) covers it.
func (l *ladder) spill(ev event) {
	base := uint64(l.cursor) >> ladShift
	idx := uint64(ev.at) >> ladShift
	for k := 0; k < ladRungs; k++ {
		if idx-base < ladBuckets {
			r := l.rungs[k]
			if r == nil {
				r = new(ladRung)
				l.rungs[k] = r
			}
			b := int(idx & ladMask)
			box := r.bucket[b]
			if cap(box) == 0 {
				if box = l.grab(); box == nil {
					// New storage starts past append's first two growth
					// steps: a small world's buckets never need a third.
					box = make([]event, 0, 4)
				}
			}
			r.bucket[b] = append(box, ev)
			r.occ[b>>6] |= 1 << uint(b&63)
			r.count++
			return
		}
		base >>= ladBits
		idx >>= ladBits
	}
	panic("sim: event before the ladder's cursor or at a negative time")
}

// grab takes storage off the free list; nil when there is none.
func (l *ladder) grab() []event {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	box := l.free[n-1]
	l.free = l.free[:n-1]
	return box
}

// spillAll files every event of box and puts the storage, cleared so that
// it retains nothing, on the free list.
func (l *ladder) spillAll(box []event) {
	for i := range box {
		l.spill(box[i])
		box[i] = event{}
	}
	l.free = append(l.free, box[:0])
}

// retreat moves the wheel back under ev, which lies before the cursor, and
// re-files the bottom from there. A rung's window only reaches ladBuckets
// past the cursor and the bucket slots are shared modulo ladBuckets, so
// first every bucket the earlier window no longer covers is lifted into a
// coarser rung — coarsest rung first, so that a lifted event lands where
// the windows are already the new ones. Those buckets, the bottom and ev
// are all that moves: what the look-aheads since the last retreat cascaded
// into the finer rungs, plus the bottom — never the resident population.
func (l *ladder) retreat(ev event) {
	to := ev.at
	if first := l.cur[l.head].at; first < to {
		to = first
	}
	was := uint64(l.cursor) >> ladShift
	l.anchor(to)
	now := uint64(l.cursor) >> ladShift
	for k := ladRungs - 1; k >= 0; k-- {
		r := l.rungs[k]
		if r == nil || r.count == 0 {
			continue
		}
		shift := uint(k * ladBits)
		wasK, end := was>>shift, now>>shift+ladBuckets
		for w, word := range r.occ {
			for ; word != 0; word &= word - 1 {
				b := w<<6 + bits.TrailingZeros64(word)
				// Occupied slots held indices in [wasK, wasK+ladBuckets).
				if idx := wasK + (uint64(b)-wasK)&ladMask; idx >= end {
					l.spillAll(r.take(b))
				}
			}
		}
	}
	pend := l.cur[l.head:]
	l.cur, l.head = nil, 0
	l.curHi = l.cursor // no active bucket: everything goes through the wheel
	l.spillAll(pend)
	l.spill(ev)
	l.refill()
}

// minTime returns the earliest scheduled time; the ladder must be
// non-empty. The bottom slot doubles as the engine's next-event
// register: shard-horizon computations read it as a field load, never a
// structure probe.
func (l *ladder) minTime() Time { return l.cur[l.head].at }

// minEvent returns the earliest event without popping it, for
// diagnostics; the ladder must be non-empty.
func (l *ladder) minEvent() event { return l.cur[l.head] }

// popInto removes the earliest event by (at, seq), writing it to *dst.
// The pointer form exists because the event struct is 56 bytes and pop
// sits on the hottest path in the repository: writing through the
// caller's pointer once beats returning by value through two
// non-inlined frames (ladder → schedQ → the event loop), which the profiler
// shows as pure memmove.
func (l *ladder) popInto(dst *event) {
	*dst = l.cur[l.head]
	l.cur[l.head] = event{} // clear p/run so the slot retains nothing
	l.head++
	l.n--
	if l.head == len(l.cur) {
		l.cur = l.cur[:0]
		l.head = 0
		if l.n > 0 {
			l.refill()
		}
	}
}

// refill activates the next non-empty bucket as the bottom; the bottom
// must be empty. It finds the rung holding the earliest bucket span; a
// rung-0 bucket is put in order and becomes the bottom, while a coarser
// bucket is first re-bucketed one or more rungs down (the lazy "first
// touch" of the overflow ladder: on its way to the bottom an event moves
// once per rung, never per pop).
//
// Two buckets of different rungs can start at the same instant — a coarse
// bucket filed from far away, and a finer one filed into its first span
// once the cursor had come close. The coarser one must go first: it may
// hold events of that first span, and taking the finer bucket would pop
// past them. So ties go to the coarser rung, whose re-bucketing then
// merges the two.
func (l *ladder) refill() {
	for {
		bestK := -1
		var bestIdx uint64
		bestStart := timeMax
		base := uint64(l.cursor) >> ladShift
		for k := 0; k < ladRungs; k++ {
			if r := l.rungs[k]; r != nil && r.count > 0 {
				idx := r.firstFrom(base)
				if start := Time(idx << uint(ladShift+k*ladBits)); start <= bestStart {
					bestK, bestIdx, bestStart = k, idx, start
				}
			}
			base >>= ladBits
		}
		l.cursor = bestStart
		box := l.rungs[bestK].take(int(bestIdx & ladMask))
		if bestK > 0 {
			// Every event shares this bucket's span, so each lands within
			// a lower rung's window from the advanced cursor.
			l.spillAll(box)
			continue
		}
		if cap(l.cur) > 0 {
			l.free = append(l.free, l.cur[:0])
		}
		l.cur, l.head = box, 0
		l.curHi = bestStart + ladSpan
		l.sortCur()
		return
	}
}

// activeSpan reports the active bucket's time span, for scheduler
// diagnostics.
func (l *ladder) activeSpan() (lo, hi Time) { return l.cursor, l.curHi }

// sortCur puts the bucket that just became the bottom in (at, seq) order.
// A bucket holds events in push order, and pushes are near-monotone in
// (at, seq) — seq increases monotonically and same-instant bursts (a
// collective fan-out, a fault schedule) append an already ordered run — so
// most buckets arrive sorted and the first scan is all they cost. A small
// bucket is insertion-sorted from where that scan stopped. A large one
// first takes a stable counting pass on at - cursor (ladSpan possible
// values) into storage off the free list: what is left out of order then is
// seq within one instant — events that reached the bucket by cascade
// behind ones pushed directly — and the same insertion pass finishes it in
// near-linear time (0.3 moves per event on the all-to-all rows).
func (l *ladder) sortCur() {
	a := l.cur
	i := 1
	for i < len(a) && !(evKey{at: a[i].at, seq: a[i].seq}).before(evKey{at: a[i-1].at, seq: a[i-1].seq}) {
		i++
	}
	if i == len(a) {
		return
	}
	if len(a) > 24 {
		var next [ladSpan + 1]int // next[o]: where the next event at cursor+o goes
		for j := range a {
			next[a[j].at-l.cursor+1]++
		}
		for o := 1; o < ladSpan; o++ {
			next[o] += next[o-1]
		}
		out := l.grab()
		if cap(out) < len(a) {
			out = make([]event, len(a))
		}
		out = out[:len(a)]
		for j := range a {
			o := a[j].at - l.cursor
			out[next[o]] = a[j]
			next[o]++
			a[j] = event{}
		}
		l.free = append(l.free, a[:0])
		l.cur, a = out, out
		i = 1
	}
	for ; i < len(a); i++ {
		ev := a[i]
		k := evKey{at: ev.at, seq: ev.seq}
		j := i - 1
		for j >= 0 && k.before(evKey{at: a[j].at, seq: a[j].seq}) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = ev
	}
}

package sim

import "fmt"

// evPayload is the rest of an event, moved only when a sift actually
// relocates an element.
type evPayload struct {
	p    *Proc  // evResume/evStart only
	run  Runner // evRun only
	kind eventKind
	bg   bool
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq),
// stored as parallel key/payload arrays. Unlike container/heap it never
// boxes an event into an interface, so push/pop allocate nothing beyond
// amortized slice growth; the shallower tree halves the sift-down depth
// of the binary version; and the split layout keeps comparisons inside
// the dense key array. Sifts percolate a hole instead of swapping.
// Formerly the engine's scheduler; today the ladder queue (ladder.go)
// holds that job and the heap survives, unchanged and test-only, as the
// reference it is compared against: as the shadow oracle (popped, below)
// and in the lockstep fuzz of ladder_test.go.
type eventHeap struct {
	k []evKey
	v []evPayload
}

func (h *eventHeap) len() int { return len(h.k) }

// minTime returns the earliest scheduled time; the heap must be
// non-empty.
func (h *eventHeap) minTime() Time { return h.k[0].at }

func (h *eventHeap) push(ev event) {
	h.k = append(h.k, evKey{at: ev.at, seq: ev.seq})
	h.v = append(h.v, evPayload{p: ev.p, run: ev.run, kind: ev.kind, bg: ev.bg})
	k, v := h.k, h.v
	i := len(k) - 1
	kk, vv := k[i], v[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !kk.before(k[parent]) {
			break
		}
		k[i], v[i] = k[parent], v[parent]
		i = parent
	}
	k[i], v[i] = kk, vv
}

// popInto removes the minimum, writing it to *dst (see ladder.popInto
// for why the hot pop path writes through a pointer).
func (h *eventHeap) popInto(dst *event) {
	k, v := h.k, h.v
	*dst = event{at: k[0].at, seq: k[0].seq,
		p: v[0].p, run: v[0].run, kind: v[0].kind, bg: v[0].bg}
	n := len(k) - 1
	k[0], v[0] = k[n], v[n]
	v[n] = evPayload{} // clear p/run so the recycled slot retains nothing
	h.k, h.v = k[:n], v[:n]
	if n > 1 {
		h.siftDown()
	}
}

func (h *eventHeap) siftDown() {
	k, v := h.k, h.v
	n := len(k)
	kk, vv := k[0], v[0] // the element being sifted, held out as a hole
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k[c].before(k[min]) {
				min = c
			}
		}
		if !k[min].before(kk) {
			break
		}
		k[i], v[i] = k[min], v[min]
		i = min
	}
	k[i], v[i] = kk, vv
}

func (h *eventHeap) pop() (ev event) {
	h.popInto(&ev)
	return ev
}

// elided: an elided key was never pushed, so the oracle has nothing to
// pop for it.
func (h *eventHeap) elided(evKey) {}

// popped makes the heap the shadow oracle (schedQ.shadow; push is the
// other half): it pops the heap behind a ladder pop and panics unless it
// yields the key the ladder did.
func (h *eventHeap) popped(q *schedQ, got evKey) {
	want := h.k[0]
	h.pop()
	if got != want {
		lo, hi := q.lad.activeSpan()
		panic(fmt.Sprintf("sim: ladder out of (at, seq) order: it popped (%d, seq %d), the heap popped (%d, seq %d); active span [%d, %d), %d pending",
			got.at, got.seq, want.at, want.seq, lo, hi, q.n))
	}
}

package sim

import "fmt"

// SetShadowOracle makes every engine built from now on pop a heap in
// lockstep behind its ladder and panic on the first pop that differs (see
// schedQ.shadow, eventHeap.popped). It returns the function that restores the
// previous setting. Engines read the switch when they are built, so a test
// sets it before the worlds it wants checked and must not run beside tests
// that build engines in parallel.
func SetShadowOracle() (restore func()) {
	prev := newEngineHook
	newEngineHook = func(e *Engine) {
		h := &countingShadow{eng: e}
		shadowed = append(shadowed, h)
		e.events.shadow = h
	}
	return func() {
		newEngineHook = prev
		TakeShadowShortfalls()
	}
}

// EngineOutcome is what the fast-path identity test compares of one
// engine's run: the events it executed, a hash of every popped (at, seq)
// key in pop order (both counting the keys it elided, see recorder), the
// switches into its processes, its final clock, in spawn order, when
// each process finished (-1 for one that never did), and whether it ever
// scheduled a background event (AtBG and its kin), which only the
// fault-plan machinery and the overload rebalancer do.
type EngineOutcome struct {
	Events     int64
	Elided     int64 // of Events, the elided keys the engine never popped
	Pops       uint64
	Switches   int64
	End        Time
	ProcEnds   []Time
	Background bool
}

// recorder is a shadow queue that folds each popped key into an FNV-1a
// hash and stamps each process with the time of the event it finished in.
// The keys the engine elides (Engine.Elide) are merged back in where the
// eager schedule pops them, so a served run and its eager reference fold
// the same keys: an elided key is folded once, before the first pop that
// sorts after it, and a key elided and then scheduled after all only at
// its pop.
type recorder struct {
	eng   *Engine
	h     uint64
	at    Time   // the event being executed
	gone  int    // processes finished or killed by then
	ends  []Time // per process, -1 until it finishes
	elid  eventHeap
	extra int64 // elided keys folded in, the events the eager schedule adds
	bg    bool  // a background event was scheduled
}

func (r *recorder) push(ev event) { r.bg = r.bg || ev.bg }

func (r *recorder) elided(k evKey) { r.elid.push(event{at: k.at, seq: k.seq}) }

func (r *recorder) popped(_ *schedQ, k evKey) {
	r.noteEnds()
	r.catchUp(&k)
	r.at = k.at
	r.fold(k)
}

// catchUp folds the elided keys that sort before k, or all of them when
// k is nil, and drops k itself when it was elided and then scheduled.
func (r *recorder) catchUp(k *evKey) {
	for r.elid.len() > 0 {
		e := r.elid.k[0]
		if k != nil && !e.before(*k) {
			if e == *k {
				r.elid.pop()
			}
			return
		}
		r.elid.pop()
		r.fold(e)
		r.extra++
	}
}

func (r *recorder) fold(k evKey) {
	for _, v := range [2]uint64{uint64(k.at), k.seq} {
		for i := 0; i < 64; i += 8 {
			r.h = (r.h ^ (v >> i & 0xff)) * 1099511628211
		}
	}
}

// noteEnds stamps the processes that finished in the event just executed.
func (r *recorder) noteEnds() {
	e := r.eng
	if gone := len(e.procs) - e.live; gone != r.gone {
		r.gone = gone
		for len(r.ends) < len(e.procs) {
			r.ends = append(r.ends, -1)
		}
		for i, p := range e.procs {
			if r.ends[i] < 0 && p.Done() {
				r.ends[i] = r.at
			}
		}
	}
}

// RecordEngines records every engine built from now on, on the eager
// schedule (DisableFastPaths) when eager is set, with a recorder as its
// shadow, until the returned stop, which reports their outcomes in the
// order they were built. An engine whose run is over (nothing queued, no
// live process) when the next one is built is summed up then and let go,
// so a sweep of worlds holds one at a time. Like SetShadowOracle it must
// not run beside tests that build engines in parallel.
func RecordEngines(eager bool) (stop func() []EngineOutcome) {
	prev := newEngineHook
	var out []EngineOutcome
	var live []*recorder // recorders of engines not yet summed up, by index into out
	var at []int
	sum := func(all bool) {
		kept, keptAt := live[:0], at[:0]
		for i, r := range live {
			if e := r.eng; all || e.events.len() == 0 && e.live == 0 {
				r.noteEnds()
				r.catchUp(nil)
				out[at[i]] = EngineOutcome{Events: e.executed + r.extra, Elided: r.extra, Pops: r.h, Switches: e.switches, End: e.now, ProcEnds: r.ends, Background: r.bg}
				r.eng = nil
				continue
			}
			kept, keptAt = append(kept, r), append(keptAt, at[i])
		}
		live, at = kept, keptAt
	}
	newEngineHook = func(e *Engine) {
		sum(false)
		if eager {
			e.DisableFastPaths()
		}
		r := &recorder{eng: e, h: 14695981039346656037}
		e.events.shadow = r
		live, at = append(live, r), append(at, len(out))
		out = append(out, EngineOutcome{})
	}
	return func() []EngineOutcome {
		newEngineHook = prev
		sum(true)
		return out
	}
}

// countingShadow is the shadow oracle's heap, counting the pops it checked
// for the engine it shadows.
type countingShadow struct {
	eventHeap
	eng  *Engine
	pops int64
}

func (h *countingShadow) popped(q *schedQ, k evKey) {
	h.pops++
	h.eventHeap.popped(q, k)
}

// shadowed lists the shadows built since the last TakeShadowShortfalls.
var shadowed []*countingShadow

// TakeShadowShortfalls reports on every engine built under SetShadowOracle
// since its last call, and forgets them: how many there were, and a line
// for each whose shadow checked fewer pops than the engine executed events
// — an event that reached the clock without passing through the ladder.
// (A pop may exceed the count: a discarded background event is popped but
// not executed.) Call it once the engines' runs are over.
func TakeShadowShortfalls() (engines int, short []string) {
	list := shadowed
	shadowed = nil
	for i, h := range list {
		if n := h.eng.EventsExecuted(); h.pops < n {
			short = append(short, fmt.Sprintf("engine %d: the shadow checked %d pops, the engine executed %d events", i, h.pops, n))
		}
	}
	return len(list), short
}

// The by-value pops of the lockstep tests; the engine pops through popInto.

func (l *ladder) pop() (ev event) {
	l.popInto(&ev)
	return ev
}

func (q *schedQ) pop() (ev event) {
	q.popInto(&ev)
	return ev
}

package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Validator detects would-be violations of the MPI-3 RMA memory model in
// the simulated timeline. In the serialized simulation data can never
// literally tear, so instead the validator flags the situations that
// would corrupt data on real hardware — exactly the hazards Section III
// of the paper designs around:
//
//   - atomicity: accumulate-family operations on overlapping bytes
//     serviced concurrently by different progress entities (e.g. two
//     ghost processes handling the same element);
//   - ordering: accumulate-family operations from one origin applied to
//     overlapping bytes out of issue order (e.g. one origin's operations
//     spread across ghosts);
//   - exclusivity: writes from different origins touching overlapping
//     bytes concurrently while at least one origin believed it held an
//     exclusive lock (the lock-bypass corruption of Section III-B).
//
// Conflict detection keys on the underlying memory segment, not the
// window, so Casper's overlapping windows over the same memory are
// checked coherently.
type Validator struct {
	recent     map[int]*applyRing // segment id -> recent applies
	violations []string
	ringSize   int
}

// applyRing holds a segment's last ringSize applies: it grows to that size
// and is circular from then on. Nearly every apply conflicts with none of
// them, so what the scan reads to find that out — byte range and end time —
// sits in an array of its own.
//
// Applies are recorded as they complete, on one engine, so ring order is
// end-time order to within the one tick an instantaneous apply is widened
// by: an entry never ends more than a tick after a later one. The entries
// that can overlap a new apply in time are therefore a suffix of the ring,
// and two of the three checks need a time overlap. The third — same-origin
// ordering — needs an earlier entry of the same origin with a higher seq,
// which maxSeq rules out for all but an origin whose seq steps back (it
// does whenever two servers apply one origin's operations out of issue
// order, on different bytes). Both shortcuts are checked, not assumed:
// fullFor forces the whole-ring scan while the ring holds an entry recorded
// out of end-time order.
type applyRing struct {
	spans   []byteSpan // spans[i] is recs[i]'s [lo, hi) and end time
	recs    []applyRec
	next    int           // once full: the oldest record, which the next apply replaces
	maxSeq  map[int]int64 // by origin world rank: highest seq recorded so far
	maxEnd  sim.Time      // latest end time recorded
	fullFor int           // applies still to be scanned against the whole ring
}

// seqSteppedBack records origin's seq and reports whether the origin has
// recorded a higher one on this ring before.
func (ring *applyRing) seqSteppedBack(origin int, seq int64) bool {
	if top, ok := ring.maxSeq[origin]; ok && seq < top {
		return true
	}
	ring.maxSeq[origin] = seq
	return false
}

type byteSpan struct {
	lo, hi int
	end    sim.Time
}

type applyRec struct {
	lo, hi     int // absolute byte range in the segment, [lo, hi)
	start, end sim.Time
	owner      int // world rank of the servicing engine; -1 for NIC hardware
	origin     int // world rank of the issuing process
	seq        int64
	kind       OpKind
	excl       bool
}

func newValidator() *Validator {
	return &Validator{recent: map[int]*applyRing{}, ringSize: 512}
}

// Violations returns human-readable descriptions of every detected
// violation, in detection order.
func (v *Validator) Violations() []string { return v.violations }

// Ok reports whether no violations were detected.
func (v *Validator) Ok() bool { return len(v.violations) == 0 }

func (v *Validator) addViolation(format string, args ...interface{}) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

func timeOverlaps(a, b *applyRec) bool { return a.start < b.end && b.start < a.end }

// recordApply registers one applied operation. It runs in engine
// context; the op carries its service interval and owner. disp is the
// displacement within reg (already resolved for dynamic windows).
func (v *Validator) recordApply(o *rmaOp, reg Region, disp, ownerWorld int) {
	lo := reg.off + disp
	rec := applyRec{
		lo:     lo,
		hi:     lo + o.dt.Extent(),
		start:  o.ext.svcStart,
		end:    o.link.At,
		owner:  ownerWorld,
		origin: o.win.comm.ranks[o.origin],
		seq:    o.ext.seq,
		kind:   o.kind,
		excl:   o.excl,
	}
	if rec.end == rec.start {
		rec.end++ // give instantaneous applies a non-empty interval
	}
	ring := v.recent[reg.seg.id]
	if ring == nil {
		ring = &applyRing{maxSeq: map[int]int64{}}
		v.recent[reg.seg.id] = ring
	}
	// The entries to check are the last `scan` of the ring: all of it when
	// the ordering check could fire or the end times are out of order, else
	// those that end late enough to overlap rec in time.
	n := len(ring.spans)
	scan := n
	full := ring.seqSteppedBack(rec.origin, rec.seq)
	if ring.fullFor > 0 {
		ring.fullFor--
		full = true
	}
	if !full {
		scan = 0
		for i := ring.next - 1; scan < n; i-- {
			if i < 0 {
				i = n - 1
			}
			if ring.spans[i].end+1 <= rec.start {
				break
			}
			scan++
		}
	}
	// Oldest first, so that violations are reported in the order the
	// applies ran: the ring reads [next, n) then [0, next).
	i := ring.next - scan
	if i < 0 {
		i += n
	}
	for ; scan > 0; scan-- {
		if sp := ring.spans[i]; sp.lo < rec.hi && rec.lo < sp.hi {
			v.check(&ring.recs[i], &rec)
		}
		if i++; i == n {
			i = 0
		}
	}
	if rec.end+1 < ring.maxEnd {
		// Recorded out of end-time order (no engine-driven apply is): until
		// this entry leaves the ring, a suffix is not enough.
		ring.fullFor = v.ringSize
	} else if rec.end > ring.maxEnd {
		ring.maxEnd = rec.end
	}
	sp := byteSpan{rec.lo, rec.hi, rec.end}
	if n < v.ringSize {
		ring.spans = append(ring.spans, sp)
		ring.recs = append(ring.recs, rec)
		return
	}
	ring.spans[ring.next] = sp
	ring.recs[ring.next] = rec
	if ring.next++; ring.next == v.ringSize {
		ring.next = 0
	}
}

// check reports what an apply violates against an earlier one on
// overlapping bytes.
func (v *Validator) check(prev, rec *applyRec) {
	bothAtomic := prev.kind.isAtomicFamily() && rec.kind.isAtomicFamily()
	anyWrite := prev.kind.isWrite() || rec.kind.isWrite()
	if bothAtomic && anyWrite && timeOverlaps(prev, rec) && prev.owner != rec.owner {
		v.addViolation(
			"atomicity: %v from rank %d (server %d, %v-%v) and %v from rank %d (server %d, %v-%v) overlap on bytes [%d,%d)x[%d,%d)",
			prev.kind, prev.origin, prev.owner, prev.start, prev.end,
			rec.kind, rec.origin, rec.owner, rec.start, rec.end,
			prev.lo, prev.hi, rec.lo, rec.hi)
	}
	if bothAtomic && prev.origin == rec.origin && prev.seq > rec.seq {
		v.addViolation(
			"ordering: rank %d's %v seq %d applied after seq %d on overlapping bytes [%d,%d)",
			rec.origin, rec.kind, rec.seq, prev.seq, rec.lo, rec.hi)
	}
	if anyWrite && prev.origin != rec.origin && (prev.excl || rec.excl) &&
		timeOverlaps(prev, rec) {
		v.addViolation(
			"exclusivity: concurrent %v from rank %d and %v from rank %d on bytes [%d,%d) while an exclusive lock was held",
			prev.kind, prev.origin, rec.kind, rec.origin, rec.lo, rec.hi)
	}
}

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
// and is circular from then on. Nearly every apply overlaps none of them, so
// the byte ranges the scan reads sit in an array of their own.
type applyRing struct {
	spans []byteSpan // spans[i] is recs[i]'s [lo, hi)
	recs  []applyRec
	next  int // once full: the oldest record, which the next apply replaces
}

type byteSpan struct{ lo, hi int }

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
		ring = &applyRing{}
		v.recent[reg.seg.id] = ring
	}
	// Oldest first — [next, len) then [0, next) — so that violations are
	// reported in the order the applies ran.
	for _, part := range [2][2]int{{ring.next, len(ring.spans)}, {0, ring.next}} {
		for i := part[0]; i < part[1]; i++ {
			if sp := ring.spans[i]; sp.lo < rec.hi && rec.lo < sp.hi {
				v.check(&ring.recs[i], &rec)
			}
		}
	}
	if len(ring.recs) < v.ringSize {
		ring.spans = append(ring.spans, byteSpan{rec.lo, rec.hi})
		ring.recs = append(ring.recs, rec)
		return
	}
	ring.spans[ring.next] = byteSpan{rec.lo, rec.hi}
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

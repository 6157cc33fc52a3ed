package mpi

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// fakeWin builds a minimal winGlobal over one 64-byte segment with 3
// comm ranks for direct validator tests.
func fakeWin(v *Validator) (*winGlobal, Region) {
	seg := &segment{id: 1, data: make([]byte, 64)}
	reg := Region{seg: seg, off: 0, n: 64}
	g := &winGlobal{
		comm:    &commGlobal{ranks: []int{0, 1, 2}},
		regions: []Region{reg, reg, reg},
		w:       &World{validator: v},
	}
	return g, reg
}

func rec(g *winGlobal, v *Validator, reg Region, kind OpKind, origin, owner int,
	disp int, start, end int64, seq int64, excl bool) {
	op := &rmaOp{
		win: g, kind: kind, origin: int32(origin), target: 1, disp: disp,
		dt: Scalar(Float64), excl: excl, owner: int32(owner),
		link: sim.Link{At: sim.Time(end * 1000)},
		ext:  &opExt{seq: seq, svcStart: sim.Time(start * 1000)},
	}
	v.recordApply(op, reg, disp, owner)
}

func TestValidatorCleanSequence(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	// Same server, sequential intervals: fine.
	rec(g, v, reg, KindAcc, 0, 5, 0, 0, 10, 1, false)
	rec(g, v, reg, KindAcc, 0, 5, 0, 10, 20, 2, false)
	rec(g, v, reg, KindAcc, 2, 5, 0, 20, 30, 1, false)
	if !v.Ok() {
		t.Fatalf("violations: %v", v.Violations())
	}
}

func TestValidatorAtomicityViolation(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	// Two accumulates on the same element, overlapping service windows,
	// different servers: the multi-ghost atomicity hazard.
	rec(g, v, reg, KindAcc, 0, 5, 0, 0, 10, 1, false)
	rec(g, v, reg, KindAcc, 2, 6, 0, 5, 15, 1, false)
	if v.Ok() {
		t.Fatal("atomicity violation not detected")
	}
	if !strings.Contains(v.Violations()[0], "atomicity") {
		t.Fatalf("wrong violation: %v", v.Violations())
	}
}

func TestValidatorNoAtomicityIssueOnDisjointBytes(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	rec(g, v, reg, KindAcc, 0, 5, 0, 0, 10, 1, false)
	rec(g, v, reg, KindAcc, 2, 6, 8, 5, 15, 1, false) // different element
	if !v.Ok() {
		t.Fatalf("false positive: %v", v.Violations())
	}
}

func TestValidatorOrderingViolation(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	// Same origin, same location, seq 2 applied before seq 1.
	rec(g, v, reg, KindAcc, 0, 5, 0, 0, 10, 2, false)
	rec(g, v, reg, KindAcc, 0, 6, 0, 20, 30, 1, false)
	if v.Ok() {
		t.Fatal("ordering violation not detected")
	}
	found := false
	for _, s := range v.Violations() {
		if strings.Contains(s, "ordering") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ordering violation in %v", v.Violations())
	}
}

func TestValidatorExclusivityViolation(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	// Concurrent puts from different origins, one under an exclusive
	// lock: the Section III-B corruption scenario.
	rec(g, v, reg, KindPut, 0, 5, 0, 0, 10, 1, true)
	rec(g, v, reg, KindPut, 2, 6, 0, 5, 15, 1, false)
	if v.Ok() {
		t.Fatal("exclusivity violation not detected")
	}
	if !strings.Contains(strings.Join(v.Violations(), ";"), "exclusivity") {
		t.Fatalf("wrong violations: %v", v.Violations())
	}
}

func TestValidatorPutsWithoutExclusiveLockAreLegal(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	// Concurrent unordered puts are undefined-value but not a
	// violation of MPI's guarantees.
	rec(g, v, reg, KindPut, 0, 5, 0, 0, 10, 1, false)
	rec(g, v, reg, KindPut, 2, 6, 0, 5, 15, 1, false)
	if !v.Ok() {
		t.Fatalf("false positive: %v", v.Violations())
	}
}

func TestValidatorGetsNeverConflict(t *testing.T) {
	v := newValidator()
	g, reg := fakeWin(v)
	rec(g, v, reg, KindGet, 0, 5, 0, 0, 10, 1, true)
	rec(g, v, reg, KindGet, 2, 6, 0, 5, 15, 1, true)
	if !v.Ok() {
		t.Fatalf("false positive on concurrent gets: %v", v.Violations())
	}
}

func TestValidatorRingBounded(t *testing.T) {
	v := newValidator()
	v.ringSize = 8
	g, reg := fakeWin(v)
	for i := int64(0); i < 100; i++ {
		rec(g, v, reg, KindAcc, 0, 5, 0, i*10, i*10+10, i+1, false)
	}
	if n := len(v.recent[1].recs); n > 8 {
		t.Fatalf("ring grew to %d", n)
	}
	if !v.Ok() {
		t.Fatalf("violations: %v", v.Violations())
	}
}

// TestValidatorRingIsTheLastApplies: once full the ring is circular, and it
// must still be the window of the last ringSize applies, scanned oldest
// first — what was evicted is not reported against, and violations against
// survivors come in the order those applies ran, wherever the wrap put them.
func TestValidatorRingIsTheLastApplies(t *testing.T) {
	v := newValidator()
	v.ringSize = 4
	g, reg := fakeWin(v)
	for i, disp := range []int{0, 8, 0, 16, 0, 24} { // seqs 10..60; the first two are evicted
		rec(g, v, reg, KindAcc, 0, 5, disp, int64(i*10), int64(i*10+10), int64(10*(i+1)), false)
	}
	if !v.Ok() {
		t.Fatalf("violations: %v", v.Violations())
	}
	rec(g, v, reg, KindAcc, 0, 5, 0, 60, 70, 5, false) // issued before all of them, on bytes [0,8)
	got := v.Violations()
	if len(got) != 2 || !strings.Contains(got[0], "seq 5 applied after seq 30") ||
		!strings.Contains(got[1], "seq 5 applied after seq 50") {
		t.Fatalf("violations %q, want ordering against seq 30 then seq 50", got)
	}
}

// fullScanValidator is the validator as it stood before the suffix scan:
// every apply is compared with every entry of its segment's ring, oldest
// first. Its recordApply is that loop, verbatim; it is the oracle the scan
// that reads only what can conflict is held against.
type fullScanValidator struct {
	Validator // check, addViolation and the violation list
	rings     map[int]*fullScanRing
}

type fullScanRing struct {
	spans [][2]int // spans[i] is recs[i]'s [lo, hi)
	recs  []applyRec
	next  int
}

func newFullScanValidator(ringSize int) *fullScanValidator {
	return &fullScanValidator{Validator: Validator{ringSize: ringSize}, rings: map[int]*fullScanRing{}}
}

func (v *fullScanValidator) recordApply(o *rmaOp, reg Region, disp, ownerWorld int) {
	lo := reg.off + disp
	rec := applyRec{
		lo:     lo,
		hi:     lo + o.dt.Extent(),
		start:  o.ext.svcStart,
		end:    o.link.At,
		owner:  int32(ownerWorld),
		origin: int32(o.win.comm.ranks[o.origin]),
		seq:    o.ext.seq,
		kind:   o.kind,
		excl:   o.excl,
	}
	if rec.end == rec.start {
		rec.end++ // give instantaneous applies a non-empty interval
	}
	ring := v.rings[reg.seg.id]
	if ring == nil {
		ring = &fullScanRing{}
		v.rings[reg.seg.id] = ring
	}
	// Oldest first — [next, len) then [0, next) — so that violations are
	// reported in the order the applies ran.
	for _, part := range [2][2]int{{ring.next, len(ring.spans)}, {0, ring.next}} {
		for i := part[0]; i < part[1]; i++ {
			if sp := ring.spans[i]; sp[0] < rec.hi && rec.lo < sp[1] {
				v.check(&ring.recs[i], &rec)
			}
		}
	}
	if len(ring.recs) < v.ringSize {
		ring.spans = append(ring.spans, [2]int{rec.lo, rec.hi})
		ring.recs = append(ring.recs, rec)
		return
	}
	ring.spans[ring.next] = [2]int{rec.lo, rec.hi}
	ring.recs[ring.next] = rec
	if ring.next++; ring.next == v.ringSize {
		ring.next = 0
	}
}

// applyStream generates the applies of one simulated engine: the clock
// never steps back, a software apply ends now and started up to maxDur
// earlier, a hardware apply is instantaneous. Two windows expose each of
// two segments (Casper's overlapping windows), so one origin reaches the
// same bytes under two seq counters; several servers service them.
type applyStream struct {
	rng      *rand.Rand
	wins     []*winGlobal // wins[2*s], wins[2*s+1] expose segment s
	regs     []Region
	seq      map[[2]int]int64 // (window, origin) -> last seq issued
	now      int64
	maxDur   int64 // longest service interval
	maxGap   int64 // longest idle time between applies; 0 gaps are common
	stepBack int   // one apply in stepBack reuses an older seq (0 = never)
	timeBack int   // one apply in timeBack is recorded with a stale end time

	// overtake > 0 adds one origin whose accumulates alternate between two
	// servers, one of which stalls until it holds overtake of them and then
	// applies them in a row: the origin's seq steps back by about twice
	// overtake, and forward again as the backlog drains.
	overtake  int
	overSeq   int64
	held      []*rmaOp // the stalled server's backlog, in issue order
	releasing bool
	maxBack   int64 // the farthest the origin's seq stepped back
}

func newApplyStream(seed int64) *applyStream {
	s := &applyStream{rng: rand.New(rand.NewSource(seed)), seq: map[[2]int]int64{}}
	for id := 1; id <= 2; id++ {
		seg := &segment{id: id, data: make([]byte, 256)}
		// The second window of a segment exposes it from byte 64 on, to a
		// communicator that numbers the ranks the other way round.
		for k, g := range []*winGlobal{
			{comm: &commGlobal{ranks: []int{0, 1, 2, 3}}},
			{comm: &commGlobal{ranks: []int{3, 2, 1, 0}}},
		} {
			g.w = &World{}
			s.wins = append(s.wins, g)
			s.regs = append(s.regs, Region{seg: seg, off: 64 * k, n: 256 - 64*k})
		}
	}
	return s
}

// next returns the next apply: the op, the region and displacement it
// lands on, and the servicing rank.
func (s *applyStream) next() (*rmaOp, Region, int, int) {
	rng := s.rng
	if rng.Intn(3) > 0 {
		s.now += rng.Int63n(s.maxGap + 1)
	}
	if s.overtake > 0 && rng.Intn(2) == 0 {
		if op := s.overtaker(); op != nil {
			return op, s.regs[0], op.disp, int(op.owner)
		}
	}
	wi := rng.Intn(len(s.wins))
	origin := rng.Intn(4)
	key := [2]int{wi, origin}
	s.seq[key]++
	seq := s.seq[key]
	if s.stepBack > 0 && rng.Intn(s.stepBack) == 0 {
		seq -= 1 + rng.Int63n(40)
	}
	dt := Scalar(Float64)
	if rng.Intn(4) == 0 {
		dt = TypeOf(Float64, 1+rng.Intn(6))
	}
	kinds := []OpKind{KindAcc, KindAcc, KindAcc, KindGetAcc, KindFetchOp, KindCAS, KindPut, KindGet}
	op := &rmaOp{
		win: s.wins[wi], kind: kinds[rng.Intn(len(kinds))], origin: int32(origin), target: 1,
		disp: 8 * rng.Intn(12), dt: dt, excl: rng.Intn(8) == 0,
		link: sim.Link{At: sim.Time(s.now)},
		ext:  &opExt{seq: seq, svcStart: sim.Time(s.now)},
	}
	owner := -1 // hardware: instantaneous, no servicing rank
	if rng.Intn(5) > 0 {
		owner = 4 + rng.Intn(3)
		op.ext.svcStart = sim.Time(s.now - 1 - rng.Int63n(s.maxDur))
	}
	if s.timeBack > 0 && rng.Intn(s.timeBack) == 0 {
		back := sim.Time(2 + rng.Int63n(4*s.maxDur))
		op.link.At -= back
		op.ext.svcStart -= back
	}
	op.owner = int32(owner)
	return op, s.regs[wi], op.disp, owner
}

// overtaker returns the overtake origin's next apply, or nil when its op
// went into the stalled server's backlog instead. The origin is comm rank
// 0 of window 0, under a seq counter of its own.
func (s *applyStream) overtaker() *rmaOp {
	rng := s.rng
	var op *rmaOp
	if len(s.held) > 0 && (s.releasing || len(s.held) >= s.overtake) {
		s.releasing = true
		op, s.held = s.held[0], s.held[1:]
		s.releasing = len(s.held) > 0
		s.maxBack = max(s.maxBack, s.overSeq-op.ext.seq)
	} else {
		s.overSeq++
		op = &rmaOp{
			win: s.wins[0], kind: KindAcc, dt: Scalar(Float64), target: 1,
			disp: 8 * rng.Intn(12), ext: &opExt{seq: s.overSeq},
		}
		if s.overSeq%2 == 0 {
			op.owner = 5
			s.held = append(s.held, op)
			return nil
		}
		op.owner = 4
	}
	op.link.At = sim.Time(s.now)
	op.ext.svcStart = sim.Time(s.now - 1 - rng.Int63n(s.maxDur))
	return op
}

// TestValidatorScanMatchesFullRing drives the validator and the full-ring
// oracle with the same seeded apply streams and demands the same violation
// strings in the same order after every apply: dense and sparse timelines
// (overlapping and disjoint service intervals), equal-instant and
// instantaneous applies, several servers, an origin's seq stepping back, two
// windows over one segment, rings small enough to wrap hundreds of times and
// the production size wrapping a few, end times recorded out of order,
// which must fall back to the full scan, and an origin overtaken by hundreds
// of its own accumulates, whose seq steps back that far at the production
// ring size (the walk back along its chain stops early there).
func TestValidatorScanMatchesFullRing(t *testing.T) {
	for _, tc := range []struct {
		name                                        string
		ring, applies                               int
		maxDur, maxGap                              int64
		stepBack, timeBack, overtake, minViolations int
		minPerKind                                  int
	}{
		{name: "dense", ring: 512, applies: 3000, maxDur: 40, maxGap: 3, minViolations: 1000, minPerKind: 1},
		{name: "sparse", ring: 512, applies: 3000, maxDur: 6, maxGap: 30, minViolations: 1},
		{name: "instants", ring: 64, applies: 2000, maxDur: 1, maxGap: 1, minViolations: 100},
		{name: "seq-steps-back", ring: 32, applies: 3000, maxDur: 10, maxGap: 8, stepBack: 6, minViolations: 100, minPerKind: 1},
		{name: "small-ring", ring: 8, applies: 4000, maxDur: 20, maxGap: 5, stepBack: 50, minViolations: 100},
		{name: "time-steps-back", ring: 16, applies: 4000, maxDur: 12, maxGap: 6, stepBack: 30, timeBack: 40, minViolations: 100},
		{name: "overtaken", ring: 512, applies: 4000, maxDur: 10, maxGap: 8, overtake: 300, minViolations: 100, minPerKind: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				s := newApplyStream(seed)
				s.maxDur, s.maxGap, s.stepBack, s.timeBack = tc.maxDur, tc.maxGap, tc.stepBack, tc.timeBack
				s.overtake = tc.overtake
				v, oracle := newValidator(), newFullScanValidator(tc.ring)
				v.ringSize = tc.ring
				for i := 0; i < tc.applies; i++ {
					op, reg, disp, owner := s.next()
					v.recordApply(op, reg, disp, owner)
					oracle.recordApply(op, reg, disp, owner)
					got, want := v.Violations(), oracle.Violations()
					if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
						t.Fatalf("seed %d, apply %d: %d violations, the full scan has %d\nlast: %q\nwant: %q",
							seed, i, len(got), len(want), last(got), last(want))
					}
				}
				got, want := v.Violations(), oracle.Violations()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: violation lists differ", seed)
				}
				if len(got) < tc.minViolations {
					t.Fatalf("seed %d: only %d violations; the stream tests too little", seed, len(got))
				}
				if s.maxBack < int64(tc.overtake) {
					t.Fatalf("seed %d: the overtaken origin's seq stepped back at most %d", seed, s.maxBack)
				}
				for _, kind := range []string{"atomicity", "ordering", "exclusivity"} {
					n := 0
					for _, s := range got {
						if strings.HasPrefix(s, kind) {
							n++
						}
					}
					if n < tc.minPerKind {
						t.Fatalf("seed %d: %d %s violations, want at least %d", seed, n, kind, tc.minPerKind)
					}
				}
			}
		})
	}
}

func last(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[len(s)-1]
}

// TestValidatorSteadyStateApplyAllocatesNothing: with the ring full and no
// violation to format, recording an apply touches only the ring — also
// when the origin's seq keeps stepping back, as when two servers take
// turns at its operations (on disjoint bytes, so nothing is violated) and
// each apply walks back along the origin's chain.
func TestValidatorSteadyStateApplyAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stepBack bool
	}{{"in order", false}, {"stepped back", true}} {
		t.Run(tc.name, func(t *testing.T) {
			v := newValidator()
			g, reg := fakeWin(v)
			op := &rmaOp{
				win: g, kind: KindAcc, origin: 0, target: 1, dt: Scalar(Float64), owner: 5,
				ext: &opExt{},
			}
			var issued, steps int64
			apply := func() {
				issued++
				op.ext.seq = issued
				disp := int(issued%4) * 8
				if tc.stepBack && issued%2 == 0 {
					// The second server's half runs 40 ops behind, on the
					// upper half of the window.
					op.ext.seq = issued - 40
					disp += 32
					steps++
				}
				op.ext.svcStart = op.link.At
				op.link.At += 10
				v.recordApply(op, reg, disp, 5)
			}
			for i := 0; i < 2*v.ringSize; i++ {
				apply()
			}
			if n := testing.AllocsPerRun(1000, apply); n != 0 {
				t.Fatalf("%v allocations per apply", n)
			}
			if !v.Ok() {
				t.Fatalf("violations: %v", v.Violations())
			}
			if tc.stepBack && steps == 0 {
				t.Fatal("the seq never stepped back")
			}
		})
	}
}

// TestApplyRecSize: a ring slot is one 64-byte cache line.
func TestApplyRecSize(t *testing.T) {
	if n := unsafe.Sizeof(applyRec{}); n != 64 {
		t.Fatalf("applyRec is %d bytes, want 64", n)
	}
}

// lockFixture builds a lock manager for comm rank 0 of a hand-made
// window over an n-rank world that is never run, and returns it with a
// constructor for requests from any origin. A grant only schedules the
// grant message on the idle engine, so the tests read grants off the
// message's phase.
func lockFixture(t *testing.T, n int) (*lockManager, func(origin int, excl bool) *lockMsg) {
	t.Helper()
	w, err := NewWorld(testConfig(n, n))
	if err != nil {
		t.Fatal(err)
	}
	g := &winGlobal{w: w, comm: w.commWorld, lockMgrs: make([]*lockManager, n)}
	m := g.lockMgr(0)
	return m, func(origin int, excl bool) *lockMsg {
		win := &Win{g: g, r: w.ranks[origin], me: origin}
		return &lockMsg{win: win, target: 0, excl: excl, phase: lockPhaseRequest}
	}
}

// grantedOrigins lists the origins of the granted requests, in request
// order.
func grantedOrigins(reqs []*lockMsg) []int {
	var out []int
	for _, q := range reqs {
		if q.phase == lockPhaseGrant {
			out = append(out, q.win.me)
		}
	}
	return out
}

func TestLockManagerExclusiveExcludes(t *testing.T) {
	m, req := lockFixture(t, 3)
	reqs := []*lockMsg{req(0, true), req(1, true), req(2, false)}
	for _, q := range reqs {
		m.request(q)
	}
	if g := grantedOrigins(reqs); len(g) != 1 || g[0] != 0 {
		t.Fatalf("granted = %v", g)
	}
	m.release(0, true)
	if g := grantedOrigins(reqs); len(g) != 2 || g[1] != 1 {
		t.Fatalf("granted = %v (FIFO violated)", g)
	}
	m.release(1, true)
	if g := grantedOrigins(reqs); len(g) != 3 || g[2] != 2 {
		t.Fatalf("granted = %v", g)
	}
	m.release(2, false)
	if s, e := m.held(); s != 0 || e {
		t.Fatalf("held = %d, %v after all releases", s, e)
	}
}

func TestLockManagerSharedCoexist(t *testing.T) {
	m, req := lockFixture(t, 3)
	var reqs []*lockMsg
	for i := 0; i < 3; i++ {
		reqs = append(reqs, req(i, false))
		m.request(reqs[i])
	}
	if n := len(grantedOrigins(reqs)); n != 3 {
		t.Fatalf("granted %d shared locks, want 3", n)
	}
	if s, _ := m.held(); s != 3 {
		t.Fatalf("shared = %d", s)
	}
}

func TestLockManagerSharedWaitsBehindQueuedExclusive(t *testing.T) {
	m, req := lockFixture(t, 3)
	reqs := []*lockMsg{
		req(0, false), // granted
		req(1, true),  // queued
		req(2, false), // must queue behind excl (fairness)
	}
	for _, q := range reqs {
		m.request(q)
	}
	if g := grantedOrigins(reqs); len(g) != 1 {
		t.Fatalf("granted = %v", g)
	}
	m.release(0, false)
	if g := grantedOrigins(reqs); len(g) != 2 || g[1] != 1 {
		t.Fatalf("granted = %v", g)
	}
	m.release(1, true)
	if g := grantedOrigins(reqs); len(g) != 3 || g[2] != 2 {
		t.Fatalf("granted = %v", g)
	}
}

func TestLockManagerReleaseUnderflowPanics(t *testing.T) {
	for _, excl := range []bool{true, false} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for excl=%v underflow", excl)
				}
			}()
			(&lockManager{}).release(0, excl)
		}()
	}
}

func TestLockManagerBatchReleaseAdmitsRunOfShared(t *testing.T) {
	m, req := lockFixture(t, 4)
	reqs := []*lockMsg{req(0, true)}
	for i := 1; i <= 3; i++ {
		reqs = append(reqs, req(i, false))
	}
	for _, q := range reqs {
		m.request(q)
	}
	m.release(0, true)
	if g := grantedOrigins(reqs); len(g) != 4 {
		t.Fatalf("granted = %v; run of shared requests should all admit", g)
	}
	// The drained queue pins no granted request and reuses its array.
	if len(m.waiting()) != 0 || m.head != 0 {
		t.Fatalf("drained queue not reset: %d waiting, head %d", len(m.waiting()), m.head)
	}
	for i, q := range m.queue[:cap(m.queue)] {
		if q != nil {
			t.Fatalf("queue slot %d still pins a granted request", i)
		}
	}
}

package mpi

import (
	"strings"
	"testing"

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

package mpi

import (
	"bytes"
	"math/rand"
	"testing"
)

// guardFixture is a guard over bytes [64, 192) of a 256-byte segment on a
// world that is never run.
func guardFixture() (*World, *segment, *RegionGuard) {
	w := &World{}
	seg := &segment{id: 1, data: make([]byte, 256)}
	return w, seg, w.GuardRegion(Region{seg: seg, off: 64, n: 128})
}

// TestRegionGuardJournalSurvivesArenaReplacement: post-images live in the
// guard's arena, and an epoch that journals more than the arena holds gets
// a new one. The entries written before must still read what they recorded
// — Restore rebuilds the region from them and panics on the first byte that
// differs — including local stores MarkCrash finds and writes that straddle
// the guarded region's edges.
func TestRegionGuardJournalSurvivesArenaReplacement(t *testing.T) {
	w, seg, g := guardFixture()
	rng := rand.New(rand.NewSource(1))
	for epoch := 0; epoch < 4; epoch++ {
		arenas := map[*byte]bool{}
		for i := 0; i < 400; i++ { // ~16 bytes each: several arenas' worth
			base, n := rng.Intn(240), 1+rng.Intn(32)
			if base+n > len(seg.data) {
				n = len(seg.data) - base
			}
			rng.Read(seg.data[base : base+n])
			w.journalWrite(seg, base, n)
			if len(g.arena) > 0 {
				arenas[&g.arena[0]] = true
			}
		}
		if len(arenas) < 2 && epoch == 0 {
			t.Fatalf("the first epoch used %d arena(s); the test needs a replacement", len(arenas))
		}
		seg.data[100] ^= 0xFF // a local store no hook saw
		want := append([]byte(nil), seg.data...)
		g.MarkCrash()
		if n, replayed := g.Restore(); n != 128 || replayed == 0 {
			t.Fatalf("epoch %d: restored %d bytes, replayed %d ops", epoch, n, replayed)
		}
		if !bytes.Equal(seg.data, want) {
			t.Fatalf("epoch %d: restore changed the segment", epoch)
		}
		if len(g.entries) != 0 || len(g.arena) != 0 {
			t.Fatalf("epoch %d: journal not emptied by Restore", epoch)
		}
	}
}

// TestRegionGuardSteadyStateJournalAllocatesNothing: once the arena and
// the entry list have grown to an epoch's size, journaling and closing
// epochs allocates nothing.
func TestRegionGuardSteadyStateJournalAllocatesNothing(t *testing.T) {
	w, seg, g := guardFixture()
	epoch := func() {
		for i := 0; i < 100; i++ {
			seg.data[64+i]++
			w.journalWrite(seg, 60+i, 16)
		}
		g.Snapshot()
	}
	epoch()
	epoch() // the second epoch starts in the arena the first ended in
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("%v allocations per epoch", n)
	}
}

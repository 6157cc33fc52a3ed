package mpi

import "fmt"

// RegionGuard journals every mutation of one guarded window region so a
// crashed owner can be rolled back to its last snapshot and replayed
// forward — the rollback-replay discipline of optimistic simulation
// applied to RMA epochs. The layered runtime (Casper) guards each app
// rank's exposed region, snapshots at epoch closes (fence / unlock /
// complete — the consistency points RMA synchronization mandates), and
// restores on a confirmed recoverable crash.
//
// Two sources mutate a guarded region: remote RMA ops, journaled
// automatically by rmaOp.apply through World.journalWrite, and the
// owner's own local stores through the Go slice, which no hook can see.
// MarkCrash closes that gap at the crash instant: it reconstructs what
// the journal alone would rebuild, diffs it against live memory, and
// journals the difference as local entries. Restore then proves the
// protocol: it scrubs the region, rebuilds snapshot + journal, and
// panics unless the result is bit-identical to the pre-crash bytes.
type RegionGuard struct {
	reg     Region
	snap    []byte // region bytes at the last Snapshot
	entries []redoEntry

	// arena holds the entries' post-images back to back. The journal is
	// emptied as a whole (Snapshot, Restore), and so is the arena; one that
	// fills up mid-epoch is replaced by a larger one, never regrown, so the
	// images already handed out stay where their entries point.
	arena []byte
}

// guardArenaMin is the first arena of a guard that journals anything.
const guardArenaMin = 1 << 10

// image copies b into the arena and returns the copy.
func (g *RegionGuard) image(b []byte) []byte {
	if len(g.arena)+len(b) > cap(g.arena) {
		n := max(2*cap(g.arena), len(b), guardArenaMin)
		g.arena = make([]byte, 0, n)
	}
	at := len(g.arena)
	g.arena = append(g.arena, b...)
	return g.arena[at:len(g.arena):len(g.arena)]
}

// reset empties the journal.
func (g *RegionGuard) reset() {
	g.entries = g.entries[:0]
	g.arena = g.arena[:0]
}

// redoEntry is one journaled mutation: the post-image a remote RMA op
// left behind, or a crash-time local-store diff run.
type redoEntry struct {
	off   int // offset within the guarded region
	post  []byte
	local bool // owner's local store, captured by MarkCrash
}

// GuardRegion registers a guard over reg and takes its initial
// snapshot. Guards are only consulted when the fault plan schedules
// AppCrashes; a world without them never builds the map and the RMA
// apply path stays on the seed code.
func (w *World) GuardRegion(reg Region) *RegionGuard {
	g := &RegionGuard{reg: reg, snap: make([]byte, reg.n)}
	copy(g.snap, reg.Bytes())
	if w.guards == nil {
		w.guards = make(map[*segment][]*RegionGuard)
	}
	w.guards[reg.seg] = append(w.guards[reg.seg], g)
	return g
}

// journalWrite records the post-image of a mutation of seg's bytes
// [base, base+n) into every guard whose region overlaps it. Called from
// rmaOp.apply after the mutation, only when guards exist.
func (w *World) journalWrite(seg *segment, base, n int) {
	for _, g := range w.guards[seg] {
		lo, hi := base, base+n
		if lo < g.reg.off {
			lo = g.reg.off
		}
		if end := g.reg.off + g.reg.n; hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		g.entries = append(g.entries, redoEntry{
			off:  lo - g.reg.off,
			post: g.image(seg.data[lo:hi]),
		})
	}
}

// Snapshot folds the journal into a fresh snapshot of the live region —
// the epoch-close consistency point — and returns the snapshot size in
// bytes (what the owning ghost ships to its buddy).
func (g *RegionGuard) Snapshot() int {
	copy(g.snap, g.reg.Bytes())
	g.reset()
	return len(g.snap)
}

// MarkCrash captures the owner's un-journaled local stores at the crash
// instant: it rebuilds snapshot + journal into a scratch copy, diffs it
// against live memory, and appends each differing run as a local entry.
// After MarkCrash the journal fully determines the live bytes.
func (g *RegionGuard) MarkCrash() {
	scratch := append([]byte(nil), g.snap...)
	for _, e := range g.entries {
		copy(scratch[e.off:], e.post)
	}
	live := g.reg.Bytes()
	for i := 0; i < len(live); {
		if scratch[i] == live[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(live) && scratch[j] != live[j] {
			j++
		}
		g.entries = append(g.entries, redoEntry{
			off:   i,
			post:  g.image(live[i:j]),
			local: true,
		})
		i = j
	}
}

// Restore rolls the region back to the last snapshot and replays the
// journal, returning the snapshot bytes restored and the remote RMA ops
// replayed. The region is first scrubbed so the rebuild cannot lean on
// surviving bytes, then the result is verified bit-identical to the
// pre-crash state — divergence means the journal protocol is broken,
// which is a panic, not a recovery.
func (g *RegionGuard) Restore() (bytes, replayed int) {
	live := g.reg.Bytes()
	want := append([]byte(nil), live...)
	for i := range live {
		live[i] = 0xDB
	}
	copy(live, g.snap)
	for _, e := range g.entries {
		copy(live[e.off:], e.post)
		if !e.local {
			replayed++
		}
	}
	for i := range live {
		if live[i] != want[i] {
			panic(fmt.Sprintf("mpi: region guard replay diverged at offset %d: rebuilt %#02x, lost state %#02x",
				i, live[i], want[i]))
		}
	}
	g.reset()
	copy(g.snap, live)
	return len(g.snap), replayed
}

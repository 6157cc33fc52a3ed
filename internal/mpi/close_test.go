package mpi

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// World.Close and the window-memory free list behind it.

// segPoolBytes is the capacity of the window memory on the free list.
func segPoolBytes() (n int) {
	segPool.Lock()
	defer segPool.Unlock()
	for _, l := range segPool.free {
		for _, b := range l {
			n += cap(b)
		}
	}
	return n
}

// bigWindowWorld runs a 2-rank world whose ranks each allocate one
// window of size bytes, check that it reads all-zero, and fill it with
// fill; it returns the world, the two window buffers and rank 0's region.
func bigWindowWorld(t *testing.T, size int, fill byte) (*World, [2][]byte, Region) {
	t.Helper()
	return partlyWrittenWorld(t, size, size, fill)
}

// partlyWrittenWorld is bigWindowWorld writing only the first written
// bytes of each window.
func partlyWrittenWorld(t *testing.T, size, written int, fill byte) (*World, [2][]byte, Region) {
	t.Helper()
	var bufs [2][]byte
	var reg Region
	w := mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, buf := r.WinAllocateRegion(r.CommWorld(), size)
		for i, v := range buf {
			if v != 0 {
				t.Errorf("fresh window byte %d reads %#x", i, v)
				break
			}
		}
		for i := range buf[:written] {
			buf[i] = fill
		}
		bufs[r.Rank()] = buf
		if r.Rank() == 0 {
			reg = win.Region()
		}
		win.Free()
	})
	return w, bufs, reg
}

func TestClosedWorldMemoryIsRecycledZeroed(t *testing.T) {
	const size = 100_000 // not a class size: the recycled buffer is longer than the request
	w, first, _ := bigWindowWorld(t, size, 0xFF)
	w.Close()
	if got := segPoolBytes(); got != 2*segClass(size) {
		t.Fatalf("free list holds %d bytes after Close, want two segments of class %d", got, segClass(size))
	}

	w2, second, _ := bigWindowWorld(t, size-512, 0xAB) // same class, different length
	recycled := 0
	for _, b := range second {
		if len(b) != size-512 {
			t.Fatalf("window of %d bytes, asked for %d", len(b), size-512)
		}
		for _, old := range first {
			if &b[0] == &old[0] {
				recycled++
			}
		}
	}
	if recycled != 2 {
		t.Fatalf("%d of 2 windows reuse the closed world's memory", recycled)
	}
	if got := segPoolBytes(); got != 0 {
		t.Fatalf("free list still holds %d bytes after both segments were taken", got)
	}
	w2.Close()
}

func TestWindowAccessAfterClosePanics(t *testing.T) {
	w, bufs, reg := bigWindowWorld(t, 64, 1)
	if got := reg.Bytes(); len(got) != 64 || got[0] != 1 || &got[0] != &bufs[0][0] {
		t.Fatal("region does not read the window before Close")
	}
	stats := w.Summary()
	w.Close()
	if msg := panicText(func() { reg.Bytes() }); !strings.Contains(msg, "out of range") {
		t.Fatalf("Region.Bytes after Close: panic %q, want a bounds panic", msg)
	}
	if msg := panicText(func() { w.newSegment(8) }); !strings.Contains(msg, "closed world") {
		t.Fatalf("allocation on a closed world: panic %q", msg)
	}
	if w.Summary() != stats {
		t.Fatal("Close changed the world's counters")
	}
}

func TestCloseTwiceIsANoOp(t *testing.T) {
	w, _, _ := bigWindowWorld(t, 1<<16, 2)
	w.Close()
	held := segPoolBytes()
	if held != 2<<16 {
		t.Fatalf("free list holds %d bytes, want %d", held, 2<<16)
	}
	w.Close() // must not hand the same memory out twice, nor empty the list
	if got := segPoolBytes(); got != held {
		t.Fatalf("second Close changed the free list: %d -> %d bytes", held, got)
	}
	// A world with nothing to pool still replaces the list: it holds what
	// the last closed world returned and nothing older.
	small, _, _ := bigWindowWorld(t, 64, 3)
	small.Close()
	if got := segPoolBytes(); got != 0 {
		t.Fatalf("free list holds %d bytes of an older world", got)
	}
}

// TestOnlyWrittenSegmentsAreListed: a window the world wrote at most half
// of is not worth keeping (its untouched pages were never faulted in, and
// listed they would inflate the collector's heap goal); one written past
// the midpoint is listed as its written prefix, and reads zero throughout
// when recycled.
func TestOnlyWrittenSegmentsAreListed(t *testing.T) {
	const size = 1 << 17
	for _, written := range []int{0, 8, size / 2} {
		w, _, _ := partlyWrittenWorld(t, size, written, 0x5A)
		w.Close()
		if got := segPoolBytes(); got != 0 {
			t.Fatalf("windows with %d of %d bytes written: %d bytes listed", written, size, got)
		}
	}
	w, first, _ := partlyWrittenWorld(t, size, size/2+1, 0x5A)
	w.Close()
	segPool.Lock()
	for _, b := range segPool.free[size] {
		if len(b) != size/2+1 || cap(b) != size {
			t.Errorf("listed buffer has len %d cap %d, want the %d-byte written prefix of %d", len(b), cap(b), size/2+1, size)
		}
	}
	segPool.Unlock()
	// bigWindowWorld checks every byte of the recycled windows reads zero.
	w2, second, _ := bigWindowWorld(t, size, 1)
	if &second[0][0] != &first[0][0] && &second[0][0] != &first[1][0] {
		t.Fatal("the written windows were not recycled")
	}
	w2.Close()
}

// TestFreeListRetainsAtMostOneWorld: worlds of different shapes closed
// back to back never pile up — the list, and the live heap with it, hold
// the last one's windows only.
func TestFreeListRetainsAtMostOneWorld(t *testing.T) {
	heapNow := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	small, _, _ := bigWindowWorld(t, 64, 0)
	small.Close() // empty the list
	base := heapNow()

	const first, second = 6 << 20, 5 << 19 // different classes
	a, _, _ := bigWindowWorld(t, first, 4)
	a.Close()
	b, _, _ := bigWindowWorld(t, second, 5)
	b.Close()
	a, b = nil, nil
	if got, want := segPoolBytes(), 2*segClass(second); got != want {
		t.Fatalf("free list holds %d bytes, want the last world's %d", got, want)
	}
	const slack = 1 << 20
	if grew := int64(heapNow()) - int64(base); grew > 2*int64(segClass(second))+slack {
		t.Fatalf("live heap grew %d bytes over two closed worlds; one world's windows are %d",
			grew, 2*segClass(second))
	}
}

// TestSmallWorldPaysNothingForTheFreeList: a world of small windows —
// the fault sweeps build hundreds — allocates no more than it did before
// the list existed, less the engine's random source, which a world that
// never draws no longer seeds (148 objects, 149 with the race detector's
// own), and leaves the list alone.
func TestSmallWorldPaysNothingForTheFreeList(t *testing.T) {
	body := func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		win.Free()
	}
	n := testing.AllocsPerRun(50, func() {
		w, err := Run(benchConfig(4, 4), body)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	})
	before := 148.0
	if underRace {
		before = 149
	}
	if n > before {
		t.Fatalf("a 4-rank world allocates %.0f objects, %.0f before the free list", n, before)
	}
	if got := segPoolBytes(); got != 0 {
		t.Fatalf("a world of 64-byte windows left %d bytes on the free list", got)
	}
}

func TestSegClass(t *testing.T) {
	for _, n := range []int{segPoolMin, segPoolMin + 1, 55296, 55488, 66816, 1 << 20, 1<<20 + 1, 21_307_392} {
		c := segClass(n)
		if c < n || c-n > n/8 || segClass(c) != c {
			t.Errorf("segClass(%d) = %d: not a fixed point within an eighth above", n, c)
		}
	}
	if a, b := segClass(55296), segClass(55488); a != b {
		t.Errorf("the tile sizes of successive fig8a worlds fall in classes %d and %d", a, b)
	}
}

// garbage keeps TestNewWorldCollectsDroppedWorlds' allocations from
// being optimized away.
var garbage []byte

// TestNewWorldCollectsDroppedWorlds: NewWorld collects when the heap goal
// leaves room for the next world to grow the heap over the dropped last
// one, also beside a free list full of windows (as after a GA world), and
// not when it does not (a collection is due anyway) or when the dead heap
// is older than the last world.
func TestNewWorldCollectsDroppedWorlds(t *testing.T) {
	forced := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	newWorlds := func(n int) (collections uint64) {
		t.Helper()
		before := forced()
		for range n {
			if _, err := NewWorld(testConfig(2, 2)); err != nil {
				t.Fatal(err)
			}
		}
		return forced() - before
	}
	// dropWorld leaves size bytes dead in a heap whose goal counts them
	// live, as a world marked late in its run leaves it.
	dropWorld := func(size int) {
		garbage = make([]byte, size)
		runtime.GC()
		garbage = nil
	}
	small, _, _ := bigWindowWorld(t, 64, 0)
	small.Close() // empty the free list

	dropWorld(2 * collectEvery)
	if got := newWorlds(1); got != 1 {
		t.Fatalf("NewWorld over a dropped %d-byte world ran %d collections, want 1", 2*collectEvery, got)
	}
	if got := newWorlds(8); got != 0 {
		t.Fatalf("8 small worlds built back to back ran %d collections, want 0", got)
	}

	// Dead bytes allocated before the last world was built are older
	// than it: the runtime has counted them, and they are left to it.
	garbage = make([]byte, 2*collectEvery)
	newWorlds(1)
	runtime.GC()
	garbage = nil
	if got := newWorlds(1); got != 0 {
		t.Fatalf("NewWorld over a heap the last world did not allocate ran %d collections, want 0", got)
	}

	// Two windows of collectEvery bytes on the free list do not exempt a
	// dropped world half their size.
	big, _, _ := bigWindowWorld(t, collectEvery, 1)
	big.Close()
	dropWorld(collectEvery)
	if got := newWorlds(1); got != 1 {
		t.Fatalf("NewWorld over a dropped world beside %d pooled bytes ran %d collections, want 1", segPoolBytes(), got)
	}
	small, _, _ = bigWindowWorld(t, 64, 0)
	small.Close()
}

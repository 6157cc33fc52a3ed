package mpi

import (
	"testing"

	"repro/internal/sim"
)

// --- Size-class boundaries ---------------------------------------------

// TestClassForBoundaries probes classFor at, one below, and one above
// every class edge: class c holds buffers of capacity 1<<(poolMinShift+c),
// so n = edge must map to c, n = edge+1 must spill into c+1, and the
// lower edge (previous class's capacity) must still belong to c-1.
func TestClassForBoundaries(t *testing.T) {
	if got := classFor(0); got != -1 {
		t.Errorf("classFor(0) = %d, want -1 (zero-length is not pooled)", got)
	}
	if got := classFor(-8); got != -1 {
		t.Errorf("classFor(-8) = %d, want -1", got)
	}
	if got := classFor(1); got != 0 {
		t.Errorf("classFor(1) = %d, want 0 (smallest class)", got)
	}
	for c := 0; c < poolClasses; c++ {
		edge := 1 << (poolMinShift + c)
		if got := classFor(edge); got != c {
			t.Errorf("classFor(%d) = %d, want %d (at class edge)", edge, got, c)
		}
		if got := classFor(edge - 1); got != c && !(c > 0 && got == c-1 && edge-1 == 1<<(poolMinShift+c-1)) {
			// edge-1 belongs to class c unless it IS the previous edge.
			if c == 0 || edge-1 != 1<<(poolMinShift+c-1) {
				t.Errorf("classFor(%d) = %d, want %d (one below class edge)", edge-1, got, c)
			}
		}
		if c+1 < poolClasses {
			if got := classFor(edge + 1); got != c+1 {
				t.Errorf("classFor(%d) = %d, want %d (one above class edge)", edge+1, got, c+1)
			}
		}
	}
	if got := classFor(poolMaxSize); got != poolClasses-1 {
		t.Errorf("classFor(poolMaxSize) = %d, want %d", got, poolClasses-1)
	}
	if got := classFor(poolMaxSize + 1); got != -1 {
		t.Errorf("classFor(poolMaxSize+1) = %d, want -1 (oversize falls to the GC)", got)
	}
}

// TestPoolGetPutBoundaries exercises get/put at the class edges: exact
// length, class-sized capacity, round-tripping through the free list,
// and the zero-length / oversize escapes.
func TestPoolGetPutBoundaries(t *testing.T) {
	var p bufPool

	if b := p.get(0); b != nil {
		t.Fatalf("get(0) = %v, want nil", b)
	}
	if g, pu := p.gets, p.puts; g != 0 || pu != 0 {
		t.Fatalf("zero-length get counted: gets=%d puts=%d", g, pu)
	}
	p.put(nil)
	if p.puts != 0 {
		t.Fatalf("put(nil) counted: puts=%d", p.puts)
	}

	for _, n := range []int{1, 15, 16, 17, 4096, 4097, poolMaxSize} {
		b := p.get(n)
		if len(b) != n {
			t.Fatalf("get(%d): len = %d", n, len(b))
		}
		want := 1 << (poolMinShift + classFor(n))
		if cap(b) != want {
			t.Fatalf("get(%d): cap = %d, want class size %d", n, cap(b), want)
		}
		p.put(b)
		b2 := p.get(n)
		if &b[0] != &b2[0] {
			t.Fatalf("get(%d) after put did not reuse the pooled buffer", n)
		}
		p.put(b2)
	}

	// Oversize: allocated exactly, never retained, but fully counted so
	// the leak audit still balances.
	big := p.get(poolMaxSize + 1)
	if len(big) != poolMaxSize+1 {
		t.Fatalf("oversize get: len = %d", len(big))
	}
	p.put(big)
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after balanced get/put", p.Outstanding())
	}
}

// TestPoolClassLimits pins the byte-budgeted retention policy: small
// classes retain many buffers (budget/classSize), large classes fall
// back to the flat floor.
func TestPoolClassLimits(t *testing.T) {
	if got := classLimit(0); got != poolClassBytes>>poolMinShift {
		t.Errorf("classLimit(0) = %d, want %d", got, poolClassBytes>>poolMinShift)
	}
	if got := classLimit(poolClasses - 1); got != poolClassMinRetain {
		t.Errorf("classLimit(max) = %d, want floor %d", got, poolClassMinRetain)
	}
	for c := 0; c < poolClasses; c++ {
		if got := classLimit(c); got < poolClassMinRetain {
			t.Errorf("classLimit(%d) = %d below floor", c, got)
		}
	}
}

// --- Leak audit --------------------------------------------------------

// auditPool asserts every pooled buffer handed out during the run came
// back: gets == puts once the world has quiesced. A nonzero difference
// means an error or early-return path dropped a payload on the floor.
func auditPool(t *testing.T, w *World, label string) {
	t.Helper()
	if n := w.PoolOutstanding(); n != 0 {
		t.Errorf("%s: %d pooled buffers leaked (gets != puts)", label, n)
	}
}

// auditPoolUsed is auditPool for a workload whose payloads are meant to
// be pooled: more than opInline bytes, or they ride in the op header and
// the audit holds vacuously.
func auditPoolUsed(t *testing.T, w *World, label string) {
	t.Helper()
	auditPool(t, w, label)
	if w.pool.gets == 0 {
		t.Errorf("%s: no pooled buffer was ever drawn; the audit is vacuous", label)
	}
}

// TestPoolNoLeakAfterRMAWorkload runs every op kind through lock and
// fence epochs and asserts the pool balances.
func TestPoolNoLeakAfterRMAWorkload(t *testing.T) {
	w := mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 256, nil)
		c.Barrier()
		if r.Rank() != 0 {
			win.Lock(0, LockShared, AssertNone)
			win.Put(PutFloat64s([]float64{1, 2}), 0, 0, TypeOf(Float64, 2))
			dst := make([]byte, 16)
			win.Get(dst, 0, 0, TypeOf(Float64, 2))
			win.Put(PutFloat64s([]float64{1, 2, 3}), 0, 64, TypeOf(Float64, 3)) // past opInline: pooled
			win.Accumulate(PutFloat64s([]float64{1, 2, 3, 4}), 0, 64, TypeOf(Float64, 4), OpSum)
			win.Accumulate(PutFloat64s([]float64{1}), 0, 16, Scalar(Float64), OpSum)
			got := make([]byte, 8)
			win.GetAccumulate(PutFloat64s([]float64{2}), got, 0, 16, Scalar(Float64), OpSum)
			win.FetchAndOp(PutFloat64s([]float64{1}), got, 0, 24, Float64, OpSum)
			win.CompareAndSwap(PutFloat64s([]float64{0}), PutFloat64s([]float64{9}), got, 0, 32, Float64)
			win.Unlock(0)
		}
		c.Barrier()
		win.Fence(AssertNone)
		if r.Rank() == 1 {
			win.Put(PutFloat64s([]float64{7}), 2, 0, Scalar(Float64))
		}
		win.Fence(AssertNone)
		win.Free()
	})
	auditPoolUsed(t, w, "rma workload")
}

// TestPoolNoLeakOnRangeError drives the ErrRMARange early return in
// issue (op dropped before send) and asserts nothing pooled leaks.
func TestPoolNoLeakOnRangeError(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	var raised bool
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 32, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.Lock(1, LockShared, AssertNone)
			// Displacement outside the 32-byte target window.
			win.Put(PutFloat64s([]float64{1}), 1, 64, Scalar(Float64))
			if err := r.Err(); err != nil && err.Class == ErrRMARange {
				raised = true
			}
			win.Unlock(1)
		}
		c.Barrier()
		win.Free()
	})
	if !raised {
		t.Fatal("range error never raised; the early-return path was not covered")
	}
	auditPool(t, w, "range error")
}

// TestPoolNoLeakOnCreditTimeout drives the ErrBacklog early return
// (credit window exhausted past its timeout under ErrorsReturn) and
// asserts dropped ops released everything they held.
func TestPoolNoLeakOnCreditTimeout(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	cfg.Flow = &FlowConfig{Credits: 1, Timeout: 20 * sim.Microsecond}
	var drops int64
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			// Rank 1 computes, providing no progress: with one credit the
			// second op times out waiting for the first's ack.
			win.LockAll(AssertNone)
			for i := 0; i < 16; i++ {
				win.Accumulate(PutFloat64s([]float64{1, 2, 3}), 1, 0, TypeOf(Float64, 3), OpSum)
			}
			win.UnlockAll()
			drops = r.Stats().BacklogDropped
			c.Send(1, 3, nil)
		} else {
			r.Compute(500 * sim.Microsecond)
			c.Recv(0, 3)
		}
		c.Barrier()
		win.Free()
	})
	if drops == 0 {
		t.Fatal("no op was ever dropped on credit timeout; the early-return path was not covered")
	}
	auditPoolUsed(t, w, "credit timeout")
}

// TestPoolNoLeakAfterFlushHeavyWorkload asserts the leak audit holds for
// a full experiment-shaped run: many ranks, lockall epochs, flushes.
func TestPoolNoLeakAfterFlushHeavyWorkload(t *testing.T) {
	w := mustRun(t, testConfig(8, 4), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 128, nil)
		c.Barrier()
		win.LockAll(AssertNone)
		for round := 0; round < 4; round++ {
			for tgt := 0; tgt < c.Size(); tgt++ {
				if tgt == r.Rank() {
					continue
				}
				win.Accumulate(PutFloat64s([]float64{1, 2, 3}), tgt, 0, TypeOf(Float64, 3), OpSum)
			}
			win.FlushAll()
		}
		win.UnlockAll()
		c.Barrier()
		win.Free()
	})
	auditPoolUsed(t, w, "flush-heavy workload")
}

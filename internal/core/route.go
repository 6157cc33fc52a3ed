package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// piece is one redirected operation fragment: issued to one ghost on one
// internal window, with the displacement translated into the ghost's
// full-segment exposure ("X + P1's offset in the ghost process address
// space", Section II-C).
type piece struct {
	ghost int // ghost world rank (== rank in the internal windows)
	disp  int // absolute offset within the node shared segment
	dt    mpi.Datatype
	src   []byte
	dst   []byte
}

// Put implements mpi.Window.
func (cw *casperWin) Put(src []byte, t int, disp int, dt mpi.Datatype) {
	cw.redirect(mpi.KindPut, t, disp, dt, src, nil, mpi.OpReplace, nil)
}

// Get implements mpi.Window.
func (cw *casperWin) Get(dst []byte, t int, disp int, dt mpi.Datatype) {
	cw.redirect(mpi.KindGet, t, disp, dt, nil, dst, mpi.OpNoOp, nil)
}

// Accumulate implements mpi.Window.
func (cw *casperWin) Accumulate(src []byte, t int, disp int, dt mpi.Datatype, op mpi.Op) {
	cw.redirect(mpi.KindAcc, t, disp, dt, src, nil, op, nil)
}

// GetAccumulate implements mpi.Window.
func (cw *casperWin) GetAccumulate(src, result []byte, t int, disp int, dt mpi.Datatype, op mpi.Op) {
	cw.redirect(mpi.KindGetAcc, t, disp, dt, src, result, op, nil)
}

// FetchAndOp implements mpi.Window.
func (cw *casperWin) FetchAndOp(src, result []byte, t int, disp int, b mpi.BasicType, op mpi.Op) {
	cw.redirect(mpi.KindFetchOp, t, disp, mpi.Scalar(b), src, result, op, nil)
}

// CompareAndSwap implements mpi.Window.
func (cw *casperWin) CompareAndSwap(compare, origin, result []byte, t int, disp int, b mpi.BasicType) {
	cw.redirect(mpi.KindCAS, t, disp, mpi.Scalar(b), origin, result, mpi.OpReplace, compare)
}

// redirect makes one RMA call on the window: it checks the call, charges
// Casper's per-operation bookkeeping cost (the redirect overhead), routes
// the operation to ghost pieces, and issues them on the appropriate
// internal window.
//
// The checks and the epoch flags are the call's (opEpoch). The rest reads
// what other ranks' events change — detector verdicts, staged bindings,
// the engine's random stream — so it runs where the eager process runs it,
// after the overhead: the call is deferred as one item, and the event loop
// routes it at the pop of the overhead step (routeOp, from Expand). A call
// that cannot be deferred — the rank does not queue, a self-local Put/Get,
// or a call that fails a check route or the MPI issue would panic on —
// settles, pays the overhead in the process and routes there.
func (cw *casperWin) redirect(kind mpi.OpKind, t, disp int, dt mpi.Datatype,
	src, dst []byte, op mpi.Op, cmp []byte) {
	if t < 0 || t >= len(cw.layout) {
		cw.misuse(fmt.Sprintf("casper: target %d out of range", t))
	}
	tag := tagOp | cw.opEpoch(t)
	if dst != nil || t == cw.comm.Rank() {
		cw.hold(t)
	}
	if cw.defers(kind, t, disp, dt, src, dst, cmp) &&
		cw.user.DeferOp(tag, redirectOverhead, kind, op, t, disp, dt, src, dst, cmp) {
		cw.p.r.Count(mpi.Redirected, 1) // counted with the call, as the caller may read it
		return
	}
	cw.settle()
	cw.p.r.Proc().Advance(redirectOverhead)
	cw.routeOp(nil, 0, tag, kind, op, t, disp, dt, src, dst, cmp)
}

// defers reports whether an RMA call may be deferred: routeOp can run it
// as an expansion. It cannot take a self-local Put/Get, whose copy the
// process pays; and the checks that would panic after the overhead —
// route's, and the MPI issue's of a datatype or buffer — must panic
// there, on the eager path.
func (cw *casperWin) defers(kind mpi.OpKind, t, disp int, dt mpi.Datatype, src, dst, cmp []byte) bool {
	if cw.selfOp(kind, t) || dt.Validate() != nil {
		return false
	}
	n := dt.Size()
	if src != nil && len(src) < n || cmp != nil && len(cmp) < dt.Basic.Size() {
		return false
	}
	return cw.routeFault(kind, t, disp, dt, src, dst) == ""
}

// routeOp is the rest of an RMA call after its redirect overhead: it waits
// out a staged binding handover, opens the target's lazy lockall state,
// takes the ghost locks an epoch's first touch owes (touchGhosts, after
// which an expansion resumes at stage 1 or 2), and issues the routed
// pieces.
func (cw *casperWin) routeOp(x *mpi.Expansion, st, tag uint8, kind mpi.OpKind, op mpi.Op,
	t, disp int, dt mpi.Datatype, src, dst, cmp []byte) bool {
	var ts *ctarget
	if tag&tagNoEpoch == 0 {
		ts = cw.target(t)
	}
	if st == 0 {
		if cw.sh != nil {
			// A staged binding handover drains the target before any new
			// operation routes to it (see awaitHandover).
			if x == nil {
				cw.sh.awaitHandover(cw.p, t)
			} else if sig := cw.sh.handoverSignal(t); sig != nil {
				x.Wait(sig, handoverWait)
				return true
			}
		}
		if tag&tagOpens != 0 {
			openViaAll(ts)
		}
		if x == nil && cw.selfOp(kind, t) {
			cw.selfLocal(kind, t, disp, dt, src, dst)
			return false
		}
	}
	w := cw.winFor(t, ts)
	if ts != nil && ts.has(tsLocked) && cw.touchGhosts(x, st, t, ts, w, 0) {
		return false
	}
	if x == nil {
		// A deferred call passed routeFault when it was made.
		if msg := cw.routeFault(kind, t, disp, dt, src, dst); msg != "" {
			panic(msg)
		}
		cw.p.r.Count(mpi.Redirected, 1)
	}
	cw.issue(kind, t, w, cw.route(kind, t, disp, dt, src, dst, ts, w == cw.active), op, cmp)
	return false
}

// selfOp reports whether the operation is a Put/Get to the calling
// process that SelfOpLocal takes through shared memory.
func (cw *casperWin) selfOp(kind mpi.OpKind, t int) bool {
	return cw.p.d.cfg.SelfOpLocal && t == cw.comm.Rank() &&
		(kind == mpi.KindPut || kind == mpi.KindGet)
}

// issue issues the pieces of one routed operation on internal window w.
func (cw *casperWin) issue(kind mpi.OpKind, t int, w *mpi.Win, pieces []piece, op mpi.Op, cmp []byte) {
	if len(pieces) > 1 {
		cw.p.r.Count(mpi.Split, int64(len(pieces)-1))
	}
	if cw.sh != nil {
		// One observer callback fires per piece at its terminal state;
		// counting here (no park between route and issue) makes the
		// in-flight window cover queued-but-unissued operations too.
		cw.sh.inflight[t] += len(pieces)
		cw.sh.routed[t]++
	}
	for i := range pieces {
		pc := &pieces[i]
		switch kind {
		case mpi.KindPut:
			w.Put(pc.src, pc.ghost, pc.disp, pc.dt)
		case mpi.KindGet:
			w.Get(pc.dst, pc.ghost, pc.disp, pc.dt)
		case mpi.KindAcc:
			w.Accumulate(pc.src, pc.ghost, pc.disp, pc.dt, op)
		case mpi.KindGetAcc:
			w.GetAccumulate(pc.src, pc.dst, pc.ghost, pc.disp, pc.dt, op)
		case mpi.KindFetchOp:
			w.FetchAndOp(pc.src, pc.dst, pc.ghost, pc.disp, pc.dt.Basic, op)
		case mpi.KindCAS:
			w.CompareAndSwap(cmp, pc.src, pc.dst, pc.ghost, pc.disp, pc.dt.Basic)
		}
		if cw.lb == LBOpCounting || cw.lb == LBByteCounting {
			cw.countLB(t, pc)
		}
	}
}

// opEpoch checks, at call time, that an RMA call to target t is inside an
// epoch covering it, and returns what the call's expansion needs of that
// epoch: tagNoEpoch for a fence or PSCW epoch, which needs no per-target
// state, tagOpens when the call opens the target's lazy state under
// lockall.
func (cw *casperWin) opEpoch(t int) uint8 {
	f := &cw.epoch[t]
	switch {
	case *f&epLocked != 0:
		return 0
	case cw.lockAllActive:
		*f |= epLocked | epViaAll
		return tagOpens
	case cw.fenceActive:
		return tagNoEpoch
	case cw.accessGroup != nil:
		for _, g := range cw.accessGroup {
			if g == t {
				return tagNoEpoch
			}
		}
		cw.misuse(fmt.Sprintf("casper: PSCW op to target %d outside access group", t))
	}
	cw.misuse(fmt.Sprintf("casper: RMA operation to target %d without an epoch", t))
	return 0
}

// openViaAll opens target state ts lazily under lockall: the expansion
// side of opEpoch's tagOpens.
func openViaAll(ts *ctarget) { *ts = tsLocked | tsViaAll }

// route maps one user operation, which passed routeFault, to ghost
// pieces according to the binding model and the dynamic load-balancing
// policy (Section III-B).
func (cw *casperWin) route(kind mpi.OpKind, t, disp int, dt mpi.Datatype,
	src, dst []byte, ts *ctarget, onActive bool) []piece {
	ti := &cw.layout[t]
	abs := ti.base + disp

	if cw.p.d.cfg.UnsafeNoBinding {
		// Ablation mode: ignore all correctness machinery.
		g := ti.ghosts[cw.rng().Intn(len(ti.ghosts))]
		cw.routeBuf = append(cw.routeBuf[:0], piece{ghost: g, disp: abs, dt: dt, src: src, dst: dst})
		return cw.routeBuf
	}

	if cw.splits(kind) {
		return cw.splitBySegments(ti, abs, dt, src, dst)
	}

	// Rank binding (and single-element atomics under segment binding,
	// which always fit one chunk).
	ghost := cw.boundGhostFor(t, ti, onActive)
	if cw.binding == BindSegment {
		ghost = cw.ownerOf(ti, abs)
	} else if cw.dynamicEligible(kind, ts) {
		ghost = cw.chooseDynamic(ti)
		cw.p.r.Count(mpi.Dynamic, 1)
	}
	ghost = cw.progressTarget(ti, ghost)
	cw.routeBuf = append(cw.routeBuf[:0], piece{ghost: ghost, disp: abs, dt: dt, src: src, dst: dst})
	return cw.routeBuf
}

// routeFault returns what route panics with for an operation, or "" when
// it routes: a displacement outside the target's window, or, for a
// segment split, a displacement that is not element-aligned or an origin
// buffer shorter than the datatype.
func (cw *casperWin) routeFault(kind mpi.OpKind, t, disp int, dt mpi.Datatype, src, dst []byte) string {
	ti := &cw.layout[t]
	if disp < 0 || disp+dt.Extent() > ti.size {
		return fmt.Sprintf("casper: op at disp %d extent %d outside %d-byte window of target %d",
			disp, dt.Extent(), ti.size, t)
	}
	if cw.p.d.cfg.UnsafeNoBinding || !cw.splits(kind) {
		return ""
	}
	if es, abs := dt.Basic.Size(), ti.base+disp; abs%es != 0 {
		return fmt.Sprintf("casper: segment binding requires %d-byte aligned displacement (got absolute offset %d)", es, abs)
	}
	if n := dt.Size(); src != nil && len(src) < n || dst != nil && len(dst) < n {
		return fmt.Sprintf("casper: %v buffer shorter than its %d-byte datatype", kind, n)
	}
	return ""
}

// splits reports whether route cuts an operation of this kind at segment
// boundaries: every kind but the single-element atomics, under segment
// binding.
func (cw *casperWin) splits(kind mpi.OpKind) bool {
	return cw.binding == BindSegment && kind != mpi.KindFetchOp && kind != mpi.KindCAS
}

// dynamicEligible reports whether this op may be load-balanced away from
// its static binding: only PUT/GET (never the accumulate family, which
// needs ordering/atomicity, III-B-3), only under a policy, and only in a
// static-binding-free interval (after a flush acquired all ghost locks).
func (cw *casperWin) dynamicEligible(kind mpi.OpKind, ts *ctarget) bool {
	if cw.lb == LBStatic {
		return false
	}
	if kind != mpi.KindPut && kind != mpi.KindGet {
		return false
	}
	return ts != nil && ts.has(tsDynamicOK)
}

// chooseDynamic picks a ghost per the load-balancing policy, the
// counting ones using per-node counters of what this origin has issued
// (III-B-3).
func (cw *casperWin) chooseDynamic(ti *tinfo) int {
	switch cw.lb {
	case LBRandom:
		return ti.ghosts[cw.rng().Intn(len(ti.ghosts))]
	case LBOpCounting:
		counts := cw.lbCounts(ti)
		best := 0
		for i := 1; i < len(counts); i++ {
			if counts[i].ops < counts[best].ops {
				best = i
			}
		}
		return ti.ghosts[best]
	case LBByteCounting:
		counts := cw.lbCounts(ti)
		best := 0
		for i := 1; i < len(counts); i++ {
			if counts[i].bytes < counts[best].bytes {
				best = i
			}
		}
		return ti.ghosts[best]
	default:
		return ti.bound
	}
}

func (cw *casperWin) lbCounts(ti *tinfo) []lbCount {
	if cw.nodeLB == nil {
		cw.nodeLB = make([][]lbCount, cw.p.d.place.NodesUsed())
	}
	c := cw.nodeLB[ti.node]
	if c == nil {
		c = make([]lbCount, len(ti.ghosts))
		cw.nodeLB[ti.node] = c
	}
	return c
}

// countLB records issued work per ghost, so op- and byte-counting see
// the accumulate load pinned to bound ghosts (Fig. 7(b), 7(c)). Only
// those two policies read the counters; under the others a handle
// keeps none.
func (cw *casperWin) countLB(t int, pc *piece) {
	ti := &cw.layout[t]
	counts := cw.lbCounts(ti)
	for i, g := range ti.ghosts {
		if g == pc.ghost {
			counts[i].ops++
			counts[i].bytes += int64(pc.dt.Size())
			return
		}
	}
}

// ownerOf returns the ghost owning an absolute segment byte under
// segment binding.
func (cw *casperWin) ownerOf(ti *tinfo, abs int) int {
	idx := abs / ti.chunk
	if idx >= len(ti.ghosts) {
		idx = len(ti.ghosts) - 1
	}
	return ti.ghosts[idx]
}

// splitBySegments cuts the operation at 16-byte-aligned chunk
// boundaries, keeping every basic element whole so atomicity and
// ordering are preserved per element (III-B-2). It requires
// element-aligned displacements, which the paper assumes from compiler
// data alignment (routeFault checks them).
func (cw *casperWin) splitBySegments(ti *tinfo, abs int, dt mpi.Datatype,
	src, dst []byte) []piece {
	es := dt.Basic.Size()
	pieces := cw.routeBuf[:0]
	packed := 0 // index into the packed origin buffer
	dt.Blocks(func(off, n int) {
		lo := abs + off
		for n > 0 {
			chunkEnd := (lo/ti.chunk + 1) * ti.chunk
			run := n
			if lo+run > chunkEnd {
				run = chunkEnd - lo
			}
			if run%es != 0 {
				// Cannot happen while chunk size is a multiple of the
				// largest basic size and offsets are aligned; guard
				// against model changes.
				panic("casper: segment split tore a basic element")
			}
			pc := piece{
				ghost: cw.progressTarget(ti, cw.ownerOf(ti, lo)),
				disp:  lo,
				dt:    mpi.TypeOf(dt.Basic, run/es),
			}
			if src != nil {
				pc.src = src[packed : packed+run]
			}
			if dst != nil {
				pc.dst = dst[packed : packed+run]
			}
			pieces = append(pieces, pc)
			packed += run
			lo += run
			n -= run
		}
	})
	// Merge adjacent pieces routed to the same ghost with contiguous
	// displacements (blocks of a vector usually are not, but chunk cuts
	// within one block are reassembled when the chunk owner repeats).
	merged := pieces[:0]
	for _, pc := range pieces {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.ghost == pc.ghost && last.disp+last.dt.Size() == pc.disp &&
				last.dt.Basic == pc.dt.Basic {
				last.dt = mpi.TypeOf(last.dt.Basic, last.dt.Elems()+pc.dt.Elems())
				if pc.src != nil {
					last.src = last.src[:len(last.src)+len(pc.src)]
				}
				if pc.dst != nil {
					last.dst = last.dst[:len(last.dst)+len(pc.dst)]
				}
				continue
			}
		}
		merged = append(merged, pc)
	}
	cw.routeBuf = merged // retain any growth for the next operation
	return merged
}

// selfLocal performs a Put/Get targeting the calling process directly
// through the node shared segment — a memcpy, no ghost round trip
// (Section III-D's self-operation handling). Never used for the
// accumulate family, whose ordering against remote operations must go
// through the bound ghost.
func (cw *casperWin) selfLocal(kind mpi.OpKind, t, disp int, dt mpi.Datatype, src, dst []byte) {
	ti := &cw.layout[t]
	if disp < 0 || disp+dt.Extent() > ti.size {
		panic(fmt.Sprintf("casper: self op at disp %d extent %d outside %d-byte window",
			disp, dt.Extent(), ti.size))
	}
	mem := cw.root.Bytes()
	base := ti.base + disp
	// Charge the memcpy through shared memory.
	net := cw.p.r.World().Net()
	cw.p.r.Proc().Advance(sim.Duration(float64(dt.Size()) * net.IntraPerByte))
	idx := 0
	dt.Blocks(func(off, n int) {
		if kind == mpi.KindPut {
			copy(mem[base+off:base+off+n], src[idx:idx+n])
		} else {
			copy(dst[idx:idx+n], mem[base+off:base+off+n])
		}
		idx += n
	})
	cw.p.r.Count(mpi.SelfLocal, 1)
}

// rng returns the random stream for randomized routing decisions. It is
// the world engine's stream, deterministic for a fixed world
// configuration — LBRandom and the UnsafeNoBinding ablation are the only
// consumers.
func (cw *casperWin) rng() rngIntn { return cw.p.r.Engine().Rand() }

// rngIntn is the subset of rand.Rand the router needs (seam for tests).
type rngIntn interface{ Intn(n int) int }

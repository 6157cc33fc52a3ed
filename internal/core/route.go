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

// RPut implements mpi.Window: the merged request covers every split
// piece of the redirected put.
func (cw *casperWin) RPut(src []byte, t int, disp int, dt mpi.Datatype) *mpi.RMARequest {
	return cw.redirectReq(mpi.KindPut, t, disp, dt, src, nil)
}

// RGet implements mpi.Window.
func (cw *casperWin) RGet(dst []byte, t int, disp int, dt mpi.Datatype) *mpi.RMARequest {
	return cw.redirectReq(mpi.KindGet, t, disp, dt, nil, dst)
}

// redirectReq is redirect for the request-based variants: it gathers one
// sub-request per issued piece into a merged handle.
func (cw *casperWin) redirectReq(kind mpi.OpKind, t, disp int, dt mpi.Datatype,
	src, dst []byte) *mpi.RMARequest {
	cw.collectReqs = true
	cw.collecting = nil
	op := mpi.OpReplace
	if kind == mpi.KindGet {
		op = mpi.OpNoOp
	}
	cw.redirect(kind, t, disp, dt, src, dst, op, nil)
	req := mpi.NewMergedRMARequest(cw.p.r, cw.collecting...)
	cw.collectReqs = false
	cw.collecting = nil
	return req
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

// redirect validates the epoch, charges Casper's per-operation
// bookkeeping cost, routes the operation to ghost pieces, and issues
// them on the appropriate internal window.
func (cw *casperWin) redirect(kind mpi.OpKind, t, disp int, dt mpi.Datatype,
	src, dst []byte, op mpi.Op, cmp []byte) {
	if t < 0 || t >= len(cw.layout) {
		panic(fmt.Sprintf("casper: target %d out of range", t))
	}
	ts := cw.epochStateFor(t)
	cw.p.r.Proc().Advance(cw.p.d.cfg.RedirectOverhead)
	if cw.sh != nil {
		// A staged binding handover drains the target before any new
		// operation routes to it (see awaitHandover).
		cw.sh.awaitHandover(cw.p, t)
	}

	if cw.p.d.cfg.SelfOpLocal && t == cw.comm.Rank() &&
		(kind == mpi.KindPut || kind == mpi.KindGet) {
		cw.selfLocal(kind, t, disp, dt, src, dst)
		return
	}

	w := cw.winFor(t, ts)
	if ts != nil && ts.locked {
		cw.ensureGhostLocks(t, ts, w)
		cw.reclaimEpochLocks(t, ts, w)
	}

	pieces := cw.route(kind, t, disp, dt, src, dst, ts, w == cw.active)
	cw.p.stats.Redirected++
	if len(pieces) > 1 {
		cw.p.stats.Split += int64(len(pieces) - 1)
	}
	if cw.sh != nil {
		// One observer callback fires per piece at its terminal state;
		// counting here (no park between route and issue) makes the
		// in-flight window cover queued-but-unissued operations too.
		cw.sh.inflight[t] += len(pieces)
		cw.sh.routed[t]++
	}
	for _, pc := range pieces {
		switch kind {
		case mpi.KindPut:
			if cw.collectReqs {
				cw.collecting = append(cw.collecting, w.RPut(pc.src, pc.ghost, pc.disp, pc.dt))
			} else {
				w.Put(pc.src, pc.ghost, pc.disp, pc.dt)
			}
		case mpi.KindGet:
			if cw.collectReqs {
				cw.collecting = append(cw.collecting, w.RGet(pc.dst, pc.ghost, pc.disp, pc.dt))
			} else {
				w.Get(pc.dst, pc.ghost, pc.disp, pc.dt)
			}
		case mpi.KindAcc:
			w.Accumulate(pc.src, pc.ghost, pc.disp, pc.dt, op)
		case mpi.KindGetAcc:
			w.GetAccumulate(pc.src, pc.dst, pc.ghost, pc.disp, pc.dt, op)
		case mpi.KindFetchOp:
			w.FetchAndOp(pc.src, pc.dst, pc.ghost, pc.disp, pc.dt.Basic, op)
		case mpi.KindCAS:
			w.CompareAndSwap(cmp, pc.src, pc.dst, pc.ghost, pc.disp, pc.dt.Basic)
		}
		cw.countLB(t, pc)
	}
}

// epochStateFor checks the op is inside an epoch covering target t and
// returns the per-target state (nil for fence/PSCW epochs, which need
// none).
func (cw *casperWin) epochStateFor(t int) *ctarget {
	if ts := cw.lookupTarget(t); ts != nil && ts.locked {
		return ts
	}
	if cw.lockAllActive {
		ts := cw.target(t)
		if !ts.locked {
			ts.locked = true
			ts.viaAll = true
			ts.lt = mpi.LockShared
			ts.ghostsLkd = false
			ts.dynamicOK = false
		}
		return ts
	}
	if cw.fenceActive {
		return nil
	}
	if cw.accessGroup != nil {
		for _, g := range cw.accessGroup {
			if g == t {
				return nil
			}
		}
		panic(fmt.Sprintf("casper: PSCW op to target %d outside access group", t))
	}
	panic(fmt.Sprintf("casper: RMA operation to target %d without an epoch", t))
}

// route maps one user operation to ghost pieces according to the binding
// model and the dynamic load-balancing policy (Section III-B).
func (cw *casperWin) route(kind mpi.OpKind, t, disp int, dt mpi.Datatype,
	src, dst []byte, ts *ctarget, onActive bool) []piece {
	ti := &cw.layout[t]
	if disp < 0 || disp+dt.Extent() > ti.size {
		panic(fmt.Sprintf("casper: op at disp %d extent %d outside %d-byte window of target %d",
			disp, dt.Extent(), ti.size, t))
	}
	abs := ti.base + disp

	if cw.p.d.cfg.UnsafeNoBinding {
		// Ablation mode: ignore all correctness machinery.
		g := ti.ghosts[cw.rng().Intn(len(ti.ghosts))]
		cw.routeBuf = append(cw.routeBuf[:0], piece{ghost: g, disp: abs, dt: dt, src: src, dst: dst})
		return cw.routeBuf
	}

	if cw.binding == BindSegment && (kind == mpi.KindPut || kind == mpi.KindGet ||
		kind == mpi.KindAcc || kind == mpi.KindGetAcc) {
		return cw.splitBySegments(ti, abs, dt, src, dst)
	}

	// Rank binding (and single-element atomics under segment binding,
	// which always fit one chunk).
	ghost := cw.boundGhostFor(t, ti, onActive)
	if cw.binding == BindSegment {
		ghost = cw.ownerOf(ti, abs)
	} else if cw.dynamicEligible(kind, ts) {
		ghost = cw.chooseDynamic(ti)
		cw.p.stats.Dynamic++
	}
	ghost = cw.progressTarget(ti, ghost)
	cw.routeBuf = append(cw.routeBuf[:0], piece{ghost: ghost, disp: abs, dt: dt, src: src, dst: dst})
	return cw.routeBuf
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
	return ts != nil && ts.dynamicOK
}

// chooseDynamic picks a ghost per the load-balancing policy, using
// per-node counters of what this origin has issued (III-B-3).
func (cw *casperWin) chooseDynamic(ti *tinfo) int {
	counts := cw.lbCounts(ti)
	switch cw.lb {
	case LBRandom:
		return ti.ghosts[cw.rng().Intn(len(ti.ghosts))]
	case LBOpCounting:
		best := 0
		for i := 1; i < len(counts); i++ {
			if counts[i].ops < counts[best].ops {
				best = i
			}
		}
		return ti.ghosts[best]
	case LBByteCounting:
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
// the accumulate load pinned to bound ghosts (Fig. 7(b), 7(c)).
func (cw *casperWin) countLB(t int, pc piece) {
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
// data alignment.
func (cw *casperWin) splitBySegments(ti *tinfo, abs int, dt mpi.Datatype,
	src, dst []byte) []piece {
	es := dt.Basic.Size()
	if abs%es != 0 {
		panic(fmt.Sprintf("casper: segment binding requires %d-byte aligned displacement (got absolute offset %d)", es, abs))
	}
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
	cw.p.stats.SelfLocal++
	if cw.collectReqs {
		// The operation is already complete; merged request is empty.
		return
	}
}

// rng returns the random stream for randomized routing decisions. It is
// the calling rank's engine stream: deterministic for a fixed world
// configuration (and, sharded, for any worker count), though a sharded
// world's draws differ from the serial engine's single stream — LBRandom
// and the UnsafeNoBinding ablation are the only consumers.
func (cw *casperWin) rng() rngIntn { return cw.p.r.Engine().Rand() }

// rngIntn is the subset of rand.Rand the router needs (seam for tests).
type rngIntn interface{ Intn(n int) int }

// Package ga is a Global-Arrays-like toolkit over MPI RMA: 2-D
// block-distributed dense arrays of float64 with one-sided Get/Put/Acc
// of rectangular patches, plus an atomic task counter (the NGA_Read_inc
// pattern NWChem's tensor contraction engine uses for dynamic load
// balancing).
//
// It is written purely against mpi.Env and mpi.Window, so the same
// application code runs over plain MPI or over Casper — exactly how
// NWChem runs over Global Arrays over ARMCI-MPI over (optionally)
// Casper in the paper's Section IV-D.
package ga

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Array is one rank's handle on a block-distributed rows x cols float64
// array.
type Array struct {
	env  mpi.Env
	name string
	win  mpi.Window
	loc  []byte // local tile memory

	rows, cols int
	pr, pc     int // process grid
	tr, tc     int // nominal tile dims (last row/col of grid may be smaller)

	// Staging reused by every patch operation on this handle (see stage).
	scratch []byte
	pieces  []piece
}

// piece is one owner's share of a patch operation in flight.
type piece struct {
	rank               int
	or0, or1, oc0, oc1 int // overlap rectangle, global coordinates
	off                int // Get: where its bytes land in the scratch buffer
}

// stage returns n bytes of the handle's scratch buffer, valid until the
// next call. A window copies an origin payload before Put/Accumulate
// return (see mpi.Window), so rmw stages one piece after another in the
// same bytes; a result buffer belongs to its Get until the flush, so Get
// stages the whole patch at once and gives every piece its own part.
func (a *Array) stage(n int) []byte {
	if cap(a.scratch) < n {
		a.scratch = make([]byte, n)
	}
	return a.scratch[:n]
}

// procGrid factors n into pr x pc with pr <= pc and pr maximal.
func procGrid(n int) (pr, pc int) {
	pr = int(math.Sqrt(float64(n)))
	for pr > 1 && n%pr != 0 {
		pr--
	}
	if pr < 1 {
		pr = 1
	}
	return pr, n / pr
}

// Create collectively builds a rows x cols array distributed over the
// whole communicator of env in a 2-D block layout. All ranks must call
// it with identical arguments.
func Create(env mpi.Env, name string, rows, cols int) (*Array, error) {
	n := env.Size()
	pr, pc := procGrid(n)
	if rows < pr || cols < pc {
		return nil, fmt.Errorf("ga: array %q (%dx%d) smaller than process grid %dx%d",
			name, rows, cols, pr, pc)
	}
	a := &Array{
		env: env, name: name,
		rows: rows, cols: cols,
		pr: pr, pc: pc,
		tr: (rows + pr - 1) / pr,
		tc: (cols + pc - 1) / pc,
	}
	mr0, mr1, mc0, mc1 := a.tileBounds(env.Rank())
	local := (mr1 - mr0) * (mc1 - mc0) * 8
	win, buf := env.WinAllocate(env.CommWorld(), local, mpi.Info{
		"epochs_used": "lockall", // GA uses passive target exclusively
	})
	a.win = win
	a.loc = buf
	win.LockAll(mpi.AssertNone)
	env.CommWorld().Barrier()
	return a, nil
}

// MustCreate is Create that panics on error.
func MustCreate(env mpi.Env, name string, rows, cols int) *Array {
	a, err := Create(env, name, rows, cols)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Dims returns the global dimensions.
func (a *Array) Dims() (rows, cols int) { return a.rows, a.cols }

// Grid returns the process-grid dimensions.
func (a *Array) Grid() (pr, pc int) { return a.pr, a.pc }

// ownerOf returns the rank owning global element (i, j).
func (a *Array) ownerOf(i, j int) int {
	return (i/a.tr)*a.pc + (j / a.tc)
}

// tileBounds returns rank's tile as [r0, r1) x [c0, c1) in global
// coordinates.
func (a *Array) tileBounds(rank int) (r0, r1, c0, c1 int) {
	gi, gj := rank/a.pc, rank%a.pc
	r0 = gi * a.tr
	r1 = r0 + a.tr
	if r1 > a.rows {
		r1 = a.rows
	}
	c0 = gj * a.tc
	c1 = c0 + a.tc
	if c1 > a.cols {
		c1 = a.cols
	}
	return r0, r1, c0, c1
}

// Distribution returns the caller's local tile bounds [r0,r1) x [c0,c1).
func (a *Array) Distribution() (r0, r1, c0, c1 int) {
	return a.tileBounds(a.env.Rank())
}

// Local returns the caller's local tile data (row-major).
func (a *Array) Local() []float64 { return mpi.GetFloat64s(a.loc) }

// SetLocal overwrites the caller's local tile data (row-major, exactly
// the tile's size).
func (a *Array) SetLocal(vals []float64) {
	if 8*len(vals) != len(a.loc) {
		panic(fmt.Sprintf("ga: SetLocal of %d values into the %d-element local tile of %q",
			len(vals), len(a.loc)/8, a.name))
	}
	mpi.EncodeFloat64s(a.loc, vals, 1)
}

func (a *Array) checkPatch(r0, r1, c0, c1 int, buf []float64) {
	if r0 < 0 || c0 < 0 || r1 > a.rows || c1 > a.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("ga: bad patch [%d,%d)x[%d,%d) of %q (%dx%d)",
			r0, r1, c0, c1, a.name, a.rows, a.cols))
	}
	if need := (r1 - r0) * (c1 - c0); len(buf) < need {
		panic(fmt.Sprintf("ga: patch buffer %d < %d", len(buf), need))
	}
}

// visitOwners calls fn for each owner tile overlapping the patch with
// the overlap rectangle in global coordinates.
func (a *Array) visitOwners(r0, r1, c0, c1 int, fn func(rank, or0, or1, oc0, oc1 int)) {
	for gi := r0 / a.tr; gi*a.tr < r1; gi++ {
		for gj := c0 / a.tc; gj*a.tc < c1; gj++ {
			rank := gi*a.pc + gj
			tr0, tr1, tc0, tc1 := a.tileBounds(rank)
			or0, or1 := max(r0, tr0), min(r1, tr1)
			oc0, oc1 := max(c0, tc0), min(c1, tc1)
			if or0 < or1 && oc0 < oc1 {
				fn(rank, or0, or1, oc0, oc1)
			}
		}
	}
}

// pieceType builds the target-side datatype and displacement for an
// overlap rectangle within an owner's tile.
func (a *Array) pieceType(rank, or0, or1, oc0, oc1 int) (disp int, dt mpi.Datatype) {
	tr0, _, tc0, tc1 := a.tileBounds(rank)
	tileCols := tc1 - tc0
	rows := or1 - or0
	cols := oc1 - oc0
	disp = ((or0-tr0)*tileCols + (oc0 - tc0)) * 8
	if cols == tileCols {
		// Full-width rows are contiguous.
		return disp, mpi.TypeOf(mpi.Float64, rows*cols)
	}
	return disp, mpi.Vector(mpi.Float64, rows, cols, tileCols)
}

// packPiece encodes the overlap sub-rectangle of the caller's patch
// buffer (row-major over the full patch, whose origin is (r0, c0) and
// width pcols), scaled, as the packed payload of one owner's piece.
func packPiece(dst []byte, buf []float64, r0, c0, pcols int, or0, or1, oc0, oc1 int, scale float64) {
	w := oc1 - oc0
	for i := or0; i < or1; i++ {
		row := (i-r0)*pcols + (oc0 - c0)
		mpi.EncodeFloat64s(dst, buf[row:row+w], scale)
		dst = dst[8*w:]
	}
}

// Put writes buf (row-major, (r1-r0)x(c1-c0)) into the global patch. It
// returns after the data is remotely complete (NGA_Put followed by
// flush, the blocking GA semantic).
func (a *Array) Put(r0, r1, c0, c1 int, buf []float64) {
	a.checkPatch(r0, r1, c0, c1, buf)
	a.rmw(r0, r1, c0, c1, buf, 1, mpi.OpReplace)
}

// Acc atomically accumulates alpha*buf into the global patch
// (NGA_Acc). Blocking, like Put.
func (a *Array) Acc(r0, r1, c0, c1 int, buf []float64, alpha float64) {
	a.checkPatch(r0, r1, c0, c1, buf)
	a.rmw(r0, r1, c0, c1, buf, alpha, mpi.OpSum)
}

func (a *Array) rmw(r0, r1, c0, c1 int, buf []float64, alpha float64, op mpi.Op) {
	pcols := c1 - c0
	a.pieces = a.pieces[:0]
	a.visitOwners(r0, r1, c0, c1, func(rank, or0, or1, oc0, oc1 int) {
		disp, dt := a.pieceType(rank, or0, or1, oc0, oc1)
		data := a.stage(dt.Size())
		packPiece(data, buf, r0, c0, pcols, or0, or1, oc0, oc1, alpha)
		if op == mpi.OpReplace {
			a.win.Put(data, rank, disp, dt)
		} else {
			a.win.Accumulate(data, rank, disp, dt, op)
		}
		a.pieces = append(a.pieces, piece{rank: rank})
	})
	for _, p := range a.pieces {
		a.win.Flush(p.rank)
	}
}

// Get reads the global patch into buf (row-major). Blocking (NGA_Get).
func (a *Array) Get(r0, r1, c0, c1 int, buf []float64) {
	a.checkPatch(r0, r1, c0, c1, buf)
	pcols := c1 - c0
	raw := a.stage((r1 - r0) * pcols * 8)
	a.pieces = a.pieces[:0]
	off := 0
	a.visitOwners(r0, r1, c0, c1, func(rank, or0, or1, oc0, oc1 int) {
		disp, dt := a.pieceType(rank, or0, or1, oc0, oc1)
		n := dt.Size()
		a.win.Get(raw[off:off+n], rank, disp, dt)
		a.pieces = append(a.pieces, piece{rank, or0, or1, oc0, oc1, off})
		off += n
	})
	for _, p := range a.pieces {
		a.win.Flush(p.rank)
	}
	for _, p := range a.pieces {
		src, w := raw[p.off:], p.oc1-p.oc0
		for i := p.or0; i < p.or1; i++ {
			row := (i-r0)*pcols + (p.oc0 - c0)
			mpi.DecodeFloat64s(buf[row:row+w], src)
			src = src[8*w:]
		}
	}
}

// Fill sets every element the caller owns to v (collective with Sync).
func (a *Array) Fill(v float64) {
	if len(a.loc) > 0 {
		mpi.EncodeFloat64(a.loc, v)
		for n := 8; n < len(a.loc); n *= 2 {
			copy(a.loc[n:], a.loc[:n])
		}
	}
	a.Sync()
}

// Sync completes all outstanding operations and synchronizes all ranks
// (GA_Sync).
func (a *Array) Sync() {
	a.win.FlushAll()
	a.env.CommWorld().Barrier()
}

// Destroy releases the array (collective).
func (a *Array) Destroy() {
	a.win.UnlockAll()
	a.win.Free()
}

// Counter is a global atomic task counter (NGA_Read_inc): the dynamic
// load-balancing primitive of NWChem's tensor contraction engine.
type Counter struct {
	env  mpi.Env
	win  mpi.Window
	home int // rank holding the counter

	one, res [8]byte // Next's operand and result buffers
}

// NewCounter collectively creates a counter starting at zero, hosted on
// rank 0.
func NewCounter(env mpi.Env) *Counter {
	size := 0
	if env.Rank() == 0 {
		size = 8
	}
	win, buf := env.WinAllocate(env.CommWorld(), size, mpi.Info{
		"epochs_used": "lockall",
	})
	if env.Rank() == 0 {
		copy(buf, mpi.PutInt64(0))
	}
	win.LockAll(mpi.AssertNone)
	env.CommWorld().Barrier()
	c := &Counter{env: env, win: win, home: 0}
	copy(c.one[:], mpi.PutInt64(1))
	return c
}

// Next atomically fetches and increments the counter, returning the
// fetched value. Safe to call concurrently from all ranks.
func (c *Counter) Next() int64 {
	c.win.FetchAndOp(c.one[:], c.res[:], c.home, 0, mpi.Int64, mpi.OpSum)
	c.win.Flush(c.home)
	return mpi.GetInt64(c.res[:])
}

// Destroy releases the counter (collective).
func (c *Counter) Destroy() {
	c.win.UnlockAll()
	c.win.Free()
}

// Package mpi implements the MPI-3 subset this reproduction needs, as a
// runtime over the discrete-event simulator: communicators, point-to-point
// messaging with tag matching, collectives, datatypes, and — centrally —
// the full one-sided (RMA) chapter: windows, all epoch types (fence, PSCW,
// lock/unlock, lockall), communication operations (put, get, accumulate,
// get-accumulate, fetch-and-op, compare-and-swap), flush, and window sync.
//
// The runtime reproduces the progress property the Casper paper is built
// on: operations that require target-side software (accumulates and
// noncontiguous transfers — "software active messages") complete at the
// target only while the target rank is inside an MPI call, unless an
// asynchronous progress mode (thread, interrupt) is configured or the
// target is parked inside MPI permanently (a Casper ghost process).
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BasicType enumerates MPI basic datatypes supported by this runtime.
type BasicType int

// Supported basic datatypes.
const (
	Byte BasicType = iota
	Int32
	Int64
	Float64
)

// Size returns the size of one element in bytes.
func (b BasicType) Size() int {
	switch b {
	case Byte:
		return 1
	case Int32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic(fmt.Sprintf("mpi: unknown basic type %d", int(b)))
	}
}

// String implements fmt.Stringer.
func (b BasicType) String() string {
	switch b {
	case Byte:
		return "MPI_BYTE"
	case Int32:
		return "MPI_INT32"
	case Int64:
		return "MPI_INT64"
	case Float64:
		return "MPI_DOUBLE"
	default:
		return fmt.Sprintf("basic(%d)", int(b))
	}
}

// MaxBasicSize is the size of the largest basic datatype. Casper's
// segment binding aligns segment boundaries to this granularity so that
// no basic element is ever split between ghost processes (Section
// III-B-2). The paper uses 16 (MPI_REAL16); we keep the same constant.
const MaxBasicSize = 16

// Datatype describes the layout of data at the target of an RMA
// operation. It covers basic elements, contiguous runs, strided vectors,
// and explicit block lists (the noncontiguous cases that force the
// software path on all modeled platforms).
type Datatype struct {
	Basic    BasicType
	Count    int // number of blocks
	BlockLen int // basic elements per block
	Stride   int // basic elements between block starts (>= BlockLen)

	// Index holds explicit block offsets in basic elements (as
	// MPI_TYPE_INDEXED with constant block length). When non-nil it
	// overrides Count/Stride; offsets must be strictly increasing with
	// non-overlapping blocks.
	Index []int
}

// TypeOf returns the datatype of n contiguous elements of b.
func TypeOf(b BasicType, n int) Datatype {
	return Datatype{Basic: b, Count: 1, BlockLen: n, Stride: n}
}

// Scalar returns the datatype of a single element of b.
func Scalar(b BasicType) Datatype { return TypeOf(b, 1) }

// Vector returns a strided datatype: count blocks of blockLen elements,
// block starts stride elements apart (as MPI_TYPE_VECTOR).
func Vector(b BasicType, count, blockLen, stride int) Datatype {
	return Datatype{Basic: b, Count: count, BlockLen: blockLen, Stride: stride}
}

// Indexed returns an MPI_TYPE_INDEXED-style datatype: blocks of
// blockLen elements of b at the given element offsets (strictly
// increasing, non-overlapping).
func Indexed(b BasicType, blockLen int, offsets []int) Datatype {
	return Datatype{Basic: b, BlockLen: blockLen, Count: len(offsets),
		Index: append([]int(nil), offsets...)}
}

// Validate checks structural invariants.
func (d Datatype) Validate() error {
	if d.BlockLen <= 0 {
		return fmt.Errorf("mpi: datatype with blocklen %d", d.BlockLen)
	}
	if d.Index != nil {
		if len(d.Index) == 0 {
			return fmt.Errorf("mpi: indexed datatype with no blocks")
		}
		prevEnd := -1
		for _, off := range d.Index {
			if off < 0 {
				return fmt.Errorf("mpi: indexed datatype with negative offset %d", off)
			}
			if off < prevEnd {
				return fmt.Errorf("mpi: indexed datatype blocks overlap or decrease at %d", off)
			}
			prevEnd = off + d.BlockLen
		}
		return nil
	}
	if d.Count <= 0 {
		return fmt.Errorf("mpi: datatype with count %d", d.Count)
	}
	if d.Stride < d.BlockLen {
		return fmt.Errorf("mpi: datatype stride %d < blocklen %d (overlapping)", d.Stride, d.BlockLen)
	}
	return nil
}

// blocks returns the number of blocks.
func (d Datatype) blocks() int {
	if d.Index != nil {
		return len(d.Index)
	}
	return d.Count
}

// Size returns the number of data bytes the type describes.
func (d Datatype) Size() int { return d.blocks() * d.BlockLen * d.Basic.Size() }

// Extent returns the span in bytes from the first to one past the last
// byte touched.
func (d Datatype) Extent() int {
	if d.Index != nil {
		last := d.Index[len(d.Index)-1]
		return (last + d.BlockLen) * d.Basic.Size()
	}
	if d.Count == 0 {
		return 0
	}
	return ((d.Count-1)*d.Stride + d.BlockLen) * d.Basic.Size()
}

// Contiguous reports whether the described bytes form one run.
func (d Datatype) Contiguous() bool {
	if d.Index != nil {
		for i, off := range d.Index {
			if off != d.Index[0]+i*d.BlockLen {
				return false
			}
		}
		return d.Index[0] == 0 || len(d.Index) == 0
	}
	return d.Count == 1 || d.Stride == d.BlockLen
}

// Elems returns the number of basic elements.
func (d Datatype) Elems() int { return d.blocks() * d.BlockLen }

// Blocks calls fn for each contiguous block as (byteOffset, byteLength)
// relative to the start of the type, in ascending offset order.
func (d Datatype) Blocks(fn func(off, n int)) {
	es := d.Basic.Size()
	bl := d.BlockLen * es
	if d.Index != nil {
		for _, off := range d.Index {
			fn(off*es, bl)
		}
		return
	}
	if d.Contiguous() {
		fn(0, d.Count*bl)
		return
	}
	st := d.Stride * es
	for i := 0; i < d.Count; i++ {
		fn(i*st, bl)
	}
}

// String implements fmt.Stringer.
func (d Datatype) String() string {
	if d.Index != nil {
		return fmt.Sprintf("indexed(%v, blocks=%d, blocklen=%d)",
			d.Basic, len(d.Index), d.BlockLen)
	}
	if d.Contiguous() {
		return fmt.Sprintf("%v x%d", d.Basic, d.Elems())
	}
	return fmt.Sprintf("vector(%v, count=%d, blocklen=%d, stride=%d)",
		d.Basic, d.Count, d.BlockLen, d.Stride)
}

// Op is an MPI reduction operation used by accumulate-style calls.
type Op int

// Supported reduction operations. OpReplace corresponds to MPI_REPLACE
// (put semantics under accumulate ordering rules); OpNoOp to MPI_NO_OP
// (pure atomic read in get-accumulate).
const (
	OpReplace Op = iota
	OpSum
	OpProd
	OpMin
	OpMax
	OpBAnd
	OpBOr
	OpBXor
	OpNoOp
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpReplace:
		return "MPI_REPLACE"
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMin:
		return "MPI_MIN"
	case OpMax:
		return "MPI_MAX"
	case OpBAnd:
		return "MPI_BAND"
	case OpBOr:
		return "MPI_BOR"
	case OpBXor:
		return "MPI_BXOR"
	case OpNoOp:
		return "MPI_NO_OP"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// applyElem combines one basic element: dst = dst (op) src.
func applyElem(op Op, b BasicType, dst, src []byte) {
	if op == OpNoOp {
		return
	}
	if op == OpReplace {
		copy(dst, src[:b.Size()])
		return
	}
	switch b {
	case Float64:
		if op == OpBAnd || op == OpBOr || op == OpBXor {
			panic(fmt.Sprintf("mpi: bitwise %v on MPI_DOUBLE is invalid", op))
		}
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, math.Float64bits(combineF64(op, d, s)))
	case Int64:
		d := int64(binary.LittleEndian.Uint64(dst))
		s := int64(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, uint64(combineI64(op, d, s)))
	case Int32:
		d := int32(binary.LittleEndian.Uint32(dst))
		s := int32(binary.LittleEndian.Uint32(src))
		binary.LittleEndian.PutUint32(dst, uint32(combineI64(op, int64(d), int64(s))))
	case Byte:
		dst[0] = byte(combineI64(op, int64(dst[0]), int64(src[0])))
	default:
		panic(fmt.Sprintf("mpi: accumulate on unknown basic type %v", b))
	}
}

func combineF64(op Op, d, s float64) float64 {
	switch op {
	case OpSum:
		return d + s
	case OpProd:
		return d * s
	case OpMin:
		return math.Min(d, s)
	case OpMax:
		return math.Max(d, s)
	default:
		panic(fmt.Sprintf("mpi: bad float op %v", op))
	}
}

func combineI64(op Op, d, s int64) int64 {
	switch op {
	case OpSum:
		return d + s
	case OpProd:
		return d * s
	case OpMin:
		if s < d {
			return s
		}
		return d
	case OpMax:
		if s > d {
			return s
		}
		return d
	case OpBAnd:
		return d & s
	case OpBOr:
		return d | s
	case OpBXor:
		return d ^ s
	default:
		panic(fmt.Sprintf("mpi: bad int op %v", op))
	}
}

// accumulate applies src (packed, contiguous) onto the target buffer at
// disp with layout d, element-by-element with op. For OpReplace this is a
// datatype-scattered put; replace carries no element arithmetic, so each
// block moves with one copy instead of a per-element loop (and a fully
// contiguous type is a single memmove).
func accumulate(op Op, d Datatype, target []byte, disp int, src []byte) {
	if op == OpNoOp {
		return
	}
	if op == OpReplace {
		si := 0
		d.Blocks(func(off, n int) {
			copy(target[disp+off:disp+off+n], src[si:si+n])
			si += n
		})
		return
	}
	es := d.Basic.Size()
	si := 0
	d.Blocks(func(off, n int) {
		for b := 0; b < n; b += es {
			applyElem(op, d.Basic, target[disp+off+b:disp+off+b+es], src[si:si+es])
			si += es
		}
	})
}

// gather packs the bytes described by d at disp in target into a new
// contiguous buffer (the Get path).
func gather(d Datatype, target []byte, disp int) []byte {
	out := make([]byte, d.Size())
	gatherInto(out, d, target, disp)
	return out
}

// gatherPooled is gather into a recycled buffer from pool; the caller
// returns it via pool.put when the op reaches its terminal state.
func gatherPooled(d Datatype, target []byte, disp int, pool *bufPool) []byte {
	out := pool.get(d.Size())
	gatherInto(out, d, target, disp)
	return out
}

func gatherInto(out []byte, d Datatype, target []byte, disp int) {
	oi := 0
	d.Blocks(func(off, n int) {
		copy(out[oi:oi+n], target[disp+off:disp+off+n])
		oi += n
	})
}

// PutFloat64s encodes a float64 slice into bytes (little endian), the
// wire format used throughout this runtime.
func PutFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		EncodeFloat64(out[8*i:], v)
	}
	return out
}

// GetFloat64s decodes bytes into float64s.
func GetFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = DecodeFloat64(b[8*i:])
	}
	return out
}

// EncodeFloat64 writes v, in window byte order, into the first 8 bytes
// of dst.
func EncodeFloat64(dst []byte, v float64) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
}

// DecodeFloat64 reads the float64 in the first 8 bytes of src.
func DecodeFloat64(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src))
}

// PutInt64 encodes one int64.
func PutInt64(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

// GetInt64 decodes one int64.
func GetInt64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

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
	es, n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		fn(d.blockOff(i, es, stride), n)
	}
}

// layout is the block structure Blocks walks, for the loops that run
// once per block of every software RMA operation and cannot afford a
// closure call there: count blocks of n bytes each, block i at byte
// offset blockOff(i, es, stride). A contiguous type is one block.
func (d Datatype) layout() (es, n, stride, count int) {
	es = d.Basic.Size()
	n = d.BlockLen * es
	switch {
	case d.Index != nil:
		return es, n, 0, len(d.Index)
	case d.Contiguous():
		return es, d.Count * n, 0, 1
	default:
		return es, n, d.Stride * es, d.Count
	}
}

func (d *Datatype) blockOff(i, es, stride int) int {
	if d.Index != nil {
		return d.Index[i] * es
	}
	return i * stride
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
type Op int32

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

// applyElem combines one basic element: dst = dst (op) src — the
// one-element call of the block kernels accumulate runs.
func applyElem(op Op, b BasicType, dst, src []byte) {
	switch op {
	case OpNoOp:
	case OpReplace:
		copy(dst, src[:b.Size()])
	default:
		k := blockKernel(op, b)
		es := b.Size()
		k(dst[:es], src[:es])
	}
}

// blockKernel resolves the (op, basic type) pair of an accumulate, once
// per operation, to the loop that combines one contiguous run of packed
// elements: dst[i] = dst[i] (op) src[i] over the whole elements of dst,
// src being at least as long. OpReplace and OpNoOp carry no element
// arithmetic and have no kernel. The invalid pairs panic here, before
// any byte moves.
func blockKernel(op Op, b BasicType) func(dst, src []byte) {
	var k func(dst, src []byte)
	switch b {
	case Float64:
		if op == OpBAnd || op == OpBOr || op == OpBXor {
			panic(fmt.Sprintf("mpi: bitwise %v on MPI_DOUBLE is invalid", op))
		}
		if k = f64Kernels.of(op); k == nil {
			panic(fmt.Sprintf("mpi: bad float op %v", op))
		}
		return k
	case Int64:
		k = i64Kernels.of(op)
	case Int32:
		k = i32Kernels.of(op)
	case Byte:
		k = byteKernels.of(op)
	default:
		panic(fmt.Sprintf("mpi: accumulate on unknown basic type %v", b))
	}
	if k == nil {
		panic(fmt.Sprintf("mpi: bad int op %v", op))
	}
	return k
}

// kernelTable holds one basic type's block kernels by Op; nil marks the
// ops that are not arithmetic on it.
type kernelTable [OpNoOp]func(dst, src []byte)

func (t *kernelTable) of(op Op) func(dst, src []byte) {
	if op < 0 || int(op) >= len(t) {
		return nil
	}
	return t[op]
}

// The kernels all have one shape: an index-stepped loop whose loads and
// stores are single little-endian moves, with the machine's own
// arithmetic — two's-complement wrap for the integers (MPI_BYTE is
// unsigned), math.Min/math.Max NaN and signed-zero rules for MPI_DOUBLE.

func stI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }
func ldI32(b []byte) int32    { return int32(binary.LittleEndian.Uint32(b)) }
func stI32(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }

var f64Kernels = kernelTable{
	OpSum: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			EncodeFloat64(d, DecodeFloat64(d)+DecodeFloat64(s))
		}
	},
	OpProd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			EncodeFloat64(d, DecodeFloat64(d)*DecodeFloat64(s))
		}
	},
	OpMin: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			EncodeFloat64(d, math.Min(DecodeFloat64(d), DecodeFloat64(s)))
		}
	},
	OpMax: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			EncodeFloat64(d, math.Max(DecodeFloat64(d), DecodeFloat64(s)))
		}
	},
}

var i64Kernels = kernelTable{
	OpSum: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, GetInt64(d)+GetInt64(s))
		}
	},
	OpProd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, GetInt64(d)*GetInt64(s))
		}
	},
	OpMin: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, min(GetInt64(d), GetInt64(s)))
		}
	},
	OpMax: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, max(GetInt64(d), GetInt64(s)))
		}
	},
	OpBAnd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, GetInt64(d)&GetInt64(s))
		}
	},
	OpBOr: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, GetInt64(d)|GetInt64(s))
		}
	},
	OpBXor: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			stI64(d, GetInt64(d)^GetInt64(s))
		}
	},
}

var i32Kernels = kernelTable{
	OpSum: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, ldI32(d)+ldI32(s))
		}
	},
	OpProd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, ldI32(d)*ldI32(s))
		}
	},
	OpMin: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, min(ldI32(d), ldI32(s)))
		}
	},
	OpMax: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, max(ldI32(d), ldI32(s)))
		}
	},
	OpBAnd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, ldI32(d)&ldI32(s))
		}
	},
	OpBOr: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, ldI32(d)|ldI32(s))
		}
	},
	OpBXor: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := 0; i+4 <= len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			stI32(d, ldI32(d)^ldI32(s))
		}
	},
}

var byteKernels = kernelTable{
	OpSum: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = dst[i] + src[i]
		}
	},
	OpProd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = dst[i] * src[i]
		}
	},
	OpMin: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = min(dst[i], src[i])
		}
	},
	OpMax: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = max(dst[i], src[i])
		}
	},
	OpBAnd: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = dst[i] & src[i]
		}
	},
	OpBOr: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = dst[i] | src[i]
		}
	},
	OpBXor: func(dst, src []byte) {
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = dst[i] ^ src[i]
		}
	},
}

// accumulate applies src (packed, contiguous) onto the target buffer at
// disp with layout d: one kernel call — for OpReplace, a datatype-
// scattered put, one memmove — per contiguous block.
func accumulate(op Op, d Datatype, target []byte, disp int, src []byte) {
	if op == OpNoOp {
		return
	}
	src = src[:d.Size()]
	var k func(dst, src []byte)
	if op != OpReplace {
		k = blockKernel(op, d.Basic)
	}
	es, n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		at := disp + d.blockOff(i, es, stride)
		if k == nil {
			copy(target[at:at+n], src[:n])
		} else {
			k(target[at:at+n], src[:n])
		}
		src = src[n:]
	}
}

// gatherInto packs the bytes described by d at disp in target into out
// (the Get path). An out shorter than the type takes the leading bytes
// that fit.
func gatherInto(out []byte, d Datatype, target []byte, disp int) {
	es, n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		at := disp + d.blockOff(i, es, stride)
		out = out[copy(out, target[at:at+n]):]
	}
}

// PutFloat64s encodes a float64 slice into bytes (little endian), the
// wire format used throughout this runtime.
func PutFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	EncodeFloat64s(out, vals, 1)
	return out
}

// GetFloat64s decodes bytes into float64s.
func GetFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	DecodeFloat64s(out, b)
	return out
}

// EncodeFloat64s writes scale*src[i], in window byte order, into
// dst[8*i:] for every element of src; dst must hold 8*len(src) bytes. A
// scale of exactly 1 stores the values' own bits.
func EncodeFloat64s(dst []byte, src []float64, scale float64) {
	dst = dst[:8*len(src)]
	if scale == 1 {
		for i := 0; i < len(src) && len(dst) >= 8; i, dst = i+1, dst[8:] {
			EncodeFloat64(dst, src[i])
		}
		return
	}
	for i := 0; i < len(src) && len(dst) >= 8; i, dst = i+1, dst[8:] {
		EncodeFloat64(dst, src[i]*scale)
	}
}

// DecodeFloat64s reads len(dst) float64s from the first 8*len(dst) bytes
// of src.
func DecodeFloat64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := 0; i < len(dst) && len(src) >= 8; i, src = i+1, src[8:] {
		dst[i] = DecodeFloat64(src)
	}
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
	stI64(out, v)
	return out
}

// GetInt64 decodes one int64.
func GetInt64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

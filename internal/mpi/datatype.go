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
	"unsafe"
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
// operation. It covers basic elements, contiguous runs and strided
// vectors (the noncontiguous case that forces the software path on all
// modeled platforms).
type Datatype struct {
	Basic    BasicType
	Count    int // number of blocks
	BlockLen int // basic elements per block
	Stride   int // basic elements between block starts (>= BlockLen)
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

// Validate checks structural invariants.
func (d Datatype) Validate() error {
	if d.Basic < Byte || d.Basic > Float64 {
		return fmt.Errorf("mpi: unknown basic type %d", int(d.Basic))
	}
	if d.BlockLen <= 0 {
		return fmt.Errorf("mpi: datatype with blocklen %d", d.BlockLen)
	}
	if d.Count <= 0 {
		return fmt.Errorf("mpi: datatype with count %d", d.Count)
	}
	if d.Stride < d.BlockLen {
		return fmt.Errorf("mpi: datatype stride %d < blocklen %d (overlapping)", d.Stride, d.BlockLen)
	}
	return nil
}

// Size returns the number of data bytes the type describes.
func (d Datatype) Size() int { return d.Count * d.BlockLen * d.Basic.Size() }

// Extent returns the span in bytes from the first to one past the last
// byte touched.
func (d Datatype) Extent() int {
	if d.Count == 0 {
		return 0
	}
	return ((d.Count-1)*d.Stride + d.BlockLen) * d.Basic.Size()
}

// Contiguous reports whether the described bytes form one run.
func (d Datatype) Contiguous() bool {
	return d.Count == 1 || d.Stride == d.BlockLen
}

// Elems returns the number of basic elements.
func (d Datatype) Elems() int { return d.Count * d.BlockLen }

// Blocks calls fn for each contiguous block as (byteOffset, byteLength)
// relative to the start of the type, in ascending offset order.
func (d Datatype) Blocks(fn func(off, n int)) {
	n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		fn(i*stride, n)
	}
}

// layout is the block structure Blocks walks, for the loops that run
// once per block of every software RMA operation and cannot afford a
// closure call there: count blocks of n bytes each, block i at byte
// offset i*stride. A contiguous type is one block.
func (d Datatype) layout() (n, stride, count int) {
	es := d.Basic.Size()
	n = d.BlockLen * es
	if d.Contiguous() {
		return d.Count * n, 0, 1
	}
	return n, d.Stride * es, d.Count
}

// String implements fmt.Stringer.
func (d Datatype) String() string {
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
// one-element call of the loops accumulate runs.
func applyElem(op Op, b BasicType, dst, src []byte) {
	switch op {
	case OpNoOp:
	case OpReplace:
		copy(dst, src[:b.Size()])
	default:
		k := blockKernel(op, b)
		es := b.Size()
		if k == nil {
			intBlock(op, dst[:es], src[:es], es)
		} else {
			k(dst[:es], src[:es])
		}
	}
}

// blockKernel resolves the (op, basic type) pair of an accumulate, once
// per operation. For MPI_DOUBLE it returns the loop that combines one
// contiguous run of packed elements: dst[i] = dst[i] (op) src[i] over
// the whole elements of dst, src being at least as long. The integer
// types return nil and run intBlock. OpReplace and OpNoOp carry no
// element arithmetic and have no kernel. The invalid pairs panic here,
// before any byte moves.
func blockKernel(op Op, b BasicType) func(dst, src []byte) {
	switch b {
	case Float64:
		if op == OpBAnd || op == OpBOr || op == OpBXor {
			panic(fmt.Sprintf("mpi: bitwise %v on MPI_DOUBLE is invalid", op))
		}
		if op < 0 || int(op) >= len(f64Kernels) || f64Kernels[op] == nil {
			panic(fmt.Sprintf("mpi: bad float op %v", op))
		}
		return f64Kernels[op]
	case Int64, Int32, Byte:
		if op < OpSum || op > OpBXor {
			panic(fmt.Sprintf("mpi: bad int op %v", op))
		}
		return nil
	default:
		panic(fmt.Sprintf("mpi: accumulate on unknown basic type %v", b))
	}
}

// f64Kernels holds the MPI_DOUBLE block kernels by Op, nil for the ops
// that are not arithmetic on it: index-stepped loops whose loads and
// stores are single little-endian moves, with math.Min/math.Max NaN and
// signed-zero rules. They carry the block traffic of the paper's
// workloads (GA/TCE tiles, the all-to-all accumulates).
var f64Kernels = [OpNoOp]func(dst, src []byte){
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

// intBlock is the integer arithmetic of accumulate: dst[i] = dst[i]
// (op) src[i] over the whole es-byte elements of dst, src being at
// least as long. Each element widens to int64 — sign-extended for
// MPI_INT32 and MPI_INT64, zero-extended for MPI_BYTE, which is
// unsigned — and the result is stored back at its own width, so it
// wraps exactly as two's-complement arithmetic at that width would. The
// integer accumulates of the experiments are scalars (GUPS's XOR, the
// chaos and GA counters), so one loop serves every width.
func intBlock(op Op, dst, src []byte, es int) {
	src = src[:len(dst)]
	for i := 0; i+es <= len(dst); i += es {
		d, s := ldInt(dst[i:], es), ldInt(src[i:], es)
		switch op {
		case OpSum:
			d += s
		case OpProd:
			d *= s
		case OpMin:
			d = min(d, s)
		case OpMax:
			d = max(d, s)
		case OpBAnd:
			d &= s
		case OpBOr:
			d |= s
		case OpBXor:
			d ^= s
		}
		stInt(dst[i:], es, d)
	}
}

// ldInt loads the es-byte integer element at the start of b, widened.
func ldInt(b []byte, es int) int64 {
	switch es {
	case 1:
		return int64(b[0])
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b)))
	default:
		return int64(binary.LittleEndian.Uint64(b))
	}
}

// stInt stores the low es bytes of v at the start of b.
func stInt(b []byte, es int, v int64) {
	switch es {
	case 1:
		b[0] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}

// accumulate applies src (packed, contiguous) onto the target buffer at
// disp with layout d: one loop call — for OpReplace, a datatype-
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
	es := d.Basic.Size()
	n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		at := disp + i*stride
		switch {
		case op == OpReplace:
			copy(target[at:at+n], src[:n])
		case k != nil:
			k(target[at:at+n], src[:n])
		default:
			intBlock(op, target[at:at+n], src[:n], es)
		}
		src = src[n:]
	}
}

// gatherInto packs the bytes described by d at disp in target into out
// (the Get path). An out shorter than the type takes the leading bytes
// that fit.
func gatherInto(out []byte, d Datatype, target []byte, disp int) {
	n, stride, count := d.layout()
	for i := 0; i < count; i++ {
		at := disp + i*stride
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
// scale of exactly 1 stores the values' own bits: on a little-endian host
// one copy of their memory.
func EncodeFloat64s(dst []byte, src []float64, scale float64) {
	dst = dst[:8*len(src)]
	if b := Float64Bytes(src); b != nil && scale == 1 {
		copy(dst, b)
		return
	}
	encodeFloat64s(dst, src, scale)
}

// DecodeFloat64s reads len(dst) float64s from the first 8*len(dst) bytes
// of src: on a little-endian host one copy into their memory.
func DecodeFloat64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	if b := Float64Bytes(dst); b != nil {
		copy(b, src)
		return
	}
	decodeFloat64s(dst, src)
}

// encodeFloat64s is EncodeFloat64s one element at a time: the path of a
// big-endian host, and the codec's reference in tests.
func encodeFloat64s(dst []byte, src []float64, scale float64) {
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

// decodeFloat64s is DecodeFloat64s one element at a time (see
// encodeFloat64s).
func decodeFloat64s(dst []float64, src []byte) {
	for i := 0; i < len(dst) && len(src) >= 8; i, src = i+1, src[8:] {
		dst[i] = DecodeFloat64(src)
	}
}

// hostLittleEndian reports whether the host stores a float64 in window
// byte order (little endian), so that a []float64's memory is already its
// encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Float64Bytes returns the memory of vals as 8*len(vals) bytes, which
// alias vals: on a little-endian host those bytes are vals encoded in
// window byte order, so a copy to or from them is the whole codec, and a
// slice of them can be an RMA call's origin or result buffer. It returns
// nil on a big-endian host, whose callers encode element by element. This
// is the runtime's only unsafe code.
func Float64Bytes(vals []float64) []byte {
	if !hostLittleEndian {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
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

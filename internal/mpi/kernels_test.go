package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The per-element accumulate this package ran until the block kernels
// replaced it, kept verbatim as their oracle: one applyElem call per
// element, (type, op) dispatched inside it.

func oracleApplyElem(op Op, b BasicType, dst, src []byte) {
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
		binary.LittleEndian.PutUint64(dst, math.Float64bits(oracleCombineF64(op, d, s)))
	case Int64:
		d := int64(binary.LittleEndian.Uint64(dst))
		s := int64(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, uint64(oracleCombineI64(op, d, s)))
	case Int32:
		d := int32(binary.LittleEndian.Uint32(dst))
		s := int32(binary.LittleEndian.Uint32(src))
		binary.LittleEndian.PutUint32(dst, uint32(oracleCombineI64(op, int64(d), int64(s))))
	case Byte:
		dst[0] = byte(oracleCombineI64(op, int64(dst[0]), int64(src[0])))
	default:
		panic(fmt.Sprintf("mpi: accumulate on unknown basic type %v", b))
	}
}

func oracleCombineF64(op Op, d, s float64) float64 {
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

func oracleCombineI64(op Op, d, s int64) int64 {
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

func oracleAccumulate(op Op, d Datatype, target []byte, disp int, src []byte) {
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
			oracleApplyElem(op, d.Basic, target[disp+off+b:disp+off+b+es], src[si:si+es])
			si += es
		}
	})
}

// gather packs the bytes d describes at disp in target into a new buffer.
func gather(d Datatype, target []byte, disp int) []byte {
	out := make([]byte, d.Size())
	gatherInto(out, d, target, disp)
	return out
}

// panicText runs fn and returns what it panicked with, or "".
func panicText(fn func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// The values every element position is made to take, besides random
// bits: the cases where the kernels' arithmetic could part from the
// oracle's (NaN and signed-zero rules of Min/Max, infinities, the wrap
// of every integer width).
var specialF64 = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.5}
var specialI64 = []int64{math.MaxInt64, math.MinInt64, -1, 0, 1, math.MaxInt32, math.MinInt32, 255, 128}

// fillElems fills buf with elements of b: special values at the
// positions rng picks, random bits elsewhere.
func fillElems(rng *rand.Rand, b BasicType, buf []byte) {
	rng.Read(buf)
	es := b.Size()
	for off := 0; off+es <= len(buf); off += es {
		if rng.Intn(2) == 0 {
			continue
		}
		switch b {
		case Float64:
			EncodeFloat64(buf[off:], specialF64[rng.Intn(len(specialF64))])
		case Int64:
			binary.LittleEndian.PutUint64(buf[off:], uint64(specialI64[rng.Intn(len(specialI64))]))
		case Int32:
			binary.LittleEndian.PutUint32(buf[off:], uint32(specialI64[rng.Intn(len(specialI64))]))
		case Byte:
			buf[off] = byte(specialI64[rng.Intn(len(specialI64))])
		}
	}
}

// checkAgainstOracle applies (op, d) at disp through the block kernels
// and through the oracle on copies of one target, and fails unless both
// panic with the same text or leave the same bytes.
func checkAgainstOracle(t *testing.T, op Op, d Datatype, target []byte, disp int, src []byte) {
	t.Helper()
	got := append([]byte(nil), target...)
	want := append([]byte(nil), target...)
	gotPanic := panicText(func() { accumulate(op, d, got, disp, src) })
	wantPanic := panicText(func() { oracleAccumulate(op, d, want, disp, src) })
	if gotPanic != wantPanic {
		t.Fatalf("%v %v at disp %d: kernels panic %q, oracle %q", op, d, disp, gotPanic, wantPanic)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v %v at disp %d: kernels and oracle leave different bytes\n got  %x\n want %x",
			op, d, disp, got, want)
	}
}

var allBasics = []BasicType{Byte, Int32, Int64, Float64}

// allOps is every defined Op and two undefined ones.
var allOps = []Op{OpReplace, OpSum, OpProd, OpMin, OpMax, OpBAnd, OpBOr, OpBXor, OpNoOp, Op(-1), Op(99)}

func TestBlockKernelsMatchPerElementOracle(t *testing.T) {
	layouts := func(b BasicType) []Datatype {
		return []Datatype{
			Scalar(b),
			TypeOf(b, 7),
			Vector(b, 3, 2, 5),
			Vector(b, 4, 1, 3),
		}
	}
	rng := rand.New(rand.NewSource(17))
	for _, b := range allBasics {
		for _, op := range allOps {
			for _, d := range layouts(b) {
				// Displacement 0, and one that leaves every element
				// unaligned in memory.
				for _, disp := range []int{0, 3} {
					for round := 0; round < 8; round++ {
						target := make([]byte, disp+d.Extent()+5)
						src := make([]byte, d.Size())
						fillElems(rng, b, target[disp:])
						fillElems(rng, b, src)
						checkAgainstOracle(t, op, d, target, disp, src)
					}
				}
			}
		}
	}
}

// TestApplyElemMatchesOracle: the one-element entry point (Allreduce's
// combiner) keeps every result and every panic text, unknown basic types
// included.
func TestApplyElemMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, b := range append([]BasicType{BasicType(9)}, allBasics...) {
		for _, op := range allOps {
			for round := 0; round < 16; round++ {
				got, src := make([]byte, 8), make([]byte, 8)
				if b <= Float64 {
					fillElems(rng, b, got)
					fillElems(rng, b, src)
				}
				want := append([]byte(nil), got...)
				gotPanic := panicText(func() { applyElem(op, b, got, src) })
				wantPanic := panicText(func() { oracleApplyElem(op, b, want, src) })
				if gotPanic != wantPanic || !bytes.Equal(got, want) {
					t.Fatalf("%v on %v: applyElem %x (panic %q), oracle %x (panic %q)",
						op, b, got, gotPanic, want, wantPanic)
				}
			}
		}
	}
}

// FuzzAccumulateBlocks drives the block kernels and the per-element
// oracle with generated (type, op, layout, displacement, bytes). The seed
// corpus in testdata/fuzz/FuzzAccumulateBlocks holds one entry per type
// and kind of op, over the special values of that type.
func FuzzAccumulateBlocks(f *testing.F) {
	f.Fuzz(func(t *testing.T, basic, op, layout, count, blockLen, gap, disp uint8, data []byte) {
		b := allBasics[int(basic)%len(allBasics)]
		o := Op(int(op) % 12) // every defined op and three undefined ones
		if op >= 200 {
			o = Op(-1)
		}
		c, bl, g := int(count%8)+1, int(blockLen%8)+1, int(gap%5)
		var d Datatype
		at := int(disp % 9)
		switch layout % 3 {
		case 0:
			d = TypeOf(b, c*bl)
		case 1:
			d = Vector(b, c, bl, bl+g)
		default:
			// A vector that starts disp%3 elements into the target, so
			// its blocks sit off the displacement's alignment.
			d = Vector(b, c, bl, bl+g)
			at += int(disp%3) * b.Size()
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		target := make([]byte, at+d.Extent()+3)
		src := make([]byte, d.Size())
		// The fuzzed bytes, repeated, are the elements of both buffers
		// (offset against each other so dst and src differ).
		if len(data) > 0 {
			for i := range target {
				target[i] = data[i%len(data)]
			}
			for i := range src {
				src[i] = data[(i+len(data)/2+1)%len(data)]
			}
		}
		checkAgainstOracle(t, o, d, target, at, src)
	})
}

// TestFloat64CodecRoundTrip: DecodeFloat64s after EncodeFloat64s returns
// exactly scale*v (v's own bits at scale 1, NaN payloads included), and
// the bulk codecs agree with the scalar ones byte for byte.
func TestFloat64CodecRoundTrip(t *testing.T) {
	check := func(vals []float64, scale float64) bool {
		enc := make([]byte, 8*len(vals)+3)
		enc[len(enc)-1] = 0xA5
		EncodeFloat64s(enc, vals, scale)
		if enc[len(enc)-1] != 0xA5 {
			return false // wrote past 8*len(vals)
		}
		dec := make([]float64, len(vals))
		DecodeFloat64s(dec, enc)
		for i, v := range vals {
			want := v
			if scale != 1 {
				want = v * scale
			}
			var one [8]byte
			EncodeFloat64(one[:], want)
			if !bytes.Equal(one[:], enc[8*i:8*i+8]) ||
				math.Float64bits(dec[i]) != math.Float64bits(want) ||
				math.Float64bits(DecodeFloat64(enc[8*i:])) != math.Float64bits(want) {
				return false
			}
		}
		return true
	}
	signalling := math.Float64frombits(0x7ff0000000000001)
	special := append([]float64{signalling}, specialF64...)
	for _, scale := range []float64{1, 0.5, -2, 0, math.Inf(1)} {
		if !check(special, scale) {
			t.Fatalf("special values do not round-trip at scale %v", scale)
		}
	}
	if !check(nil, 1) {
		t.Fatal("empty slice")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if got := GetFloat64s(PutFloat64s(special)); len(got) != len(special) {
		t.Fatalf("PutFloat64s/GetFloat64s length %d", len(got))
	} else {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(special[i]) {
				t.Fatalf("PutFloat64s/GetFloat64s changed element %d", i)
			}
		}
	}
}

// TestFloat64CodecMatchesElementLoop holds EncodeFloat64s and
// DecodeFloat64s to the element loops (encodeFloat64s, decodeFloat64s),
// which a big-endian host runs and which were the codec before the byte
// view, on every length 0-33 at scales 1 and 0.5, over NaNs with payload
// bits, signed zeros, infinities, subnormals and random bits, at every
// byte offset 0-7 of the encoded buffer. Both take the same buffer
// contract: a longer buffer keeps its tail, a shorter one panics. The
// loops' branch runs here too, with the host reporting big-endian.
func TestFloat64CodecMatchesElementLoop(t *testing.T) {
	special := []float64{
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0x7ff8dead0000beef), // quiet NaN, payload bits
		math.Float64frombits(0xfff4000000000123), // negative NaN
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		-math.Float64frombits(0x0008000000000000),
		math.MaxFloat64, -1.5, 1,
	}
	rng := rand.New(rand.NewSource(44))
	draw := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(3) == 0 {
				vals[i] = math.Float64frombits(rng.Uint64())
			} else {
				vals[i] = special[rng.Intn(len(special))]
			}
		}
		return vals
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	check := func(t *testing.T) {
		for n := 0; n <= 33; n++ {
			for _, scale := range []float64{1, 0.5} {
				for at := 0; at < 8; at++ {
					vals := draw(n)
					want := make([]byte, 8*n)
					encodeFloat64s(want, vals, scale)
					got := make([]byte, at+8*n+5)
					for i := range got {
						got[i] = 0xA5
					}
					EncodeFloat64s(got[at:], vals, scale)
					if !bytes.Equal(got[at:at+8*n], want) {
						t.Fatalf("EncodeFloat64s(n %d, scale %v, offset %d) = %x, element loop %x", n, scale, at, got[at:at+8*n], want)
					}
					if bytes.Count(got[:at], []byte{0xA5}) != at || bytes.Count(got[at+8*n:], []byte{0xA5}) != 5 {
						t.Fatalf("EncodeFloat64s(n %d, offset %d) wrote outside its %d bytes", n, at, 8*n)
					}
					dec, ref := make([]float64, n+1), make([]float64, n+1)
					dec[n], ref[n] = 7, 7
					DecodeFloat64s(dec[:n], got[at:])
					decodeFloat64s(ref[:n], got[at:])
					for i := range dec {
						if math.Float64bits(dec[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("DecodeFloat64s(n %d, offset %d) element %d = %#x, element loop %#x", n, at, i, math.Float64bits(dec[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
			if n == 0 {
				continue
			}
			if !panics(func() { EncodeFloat64s(make([]byte, 8*n-1), draw(n), 1) }) {
				t.Fatalf("EncodeFloat64s of %d values into %d bytes did not panic", n, 8*n-1)
			}
			if !panics(func() { DecodeFloat64s(make([]float64, n), make([]byte, 8*n-1)) }) {
				t.Fatalf("DecodeFloat64s of %d values from %d bytes did not panic", n, 8*n-1)
			}
		}
	}
	t.Run("host", func(t *testing.T) {
		if got := Float64Bytes([]float64{1}); hostLittleEndian != (got != nil) {
			t.Fatalf("Float64Bytes = %v on a host with hostLittleEndian %v", got, hostLittleEndian)
		}
		check(t)
	})
	t.Run("element-loop", func(t *testing.T) {
		defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
		hostLittleEndian = false
		if Float64Bytes([]float64{1}) != nil {
			t.Fatal("Float64Bytes returned a view on a big-endian host")
		}
		check(t)
	})
}

// TestFloat64BytesAliases: on a little-endian host the view is the
// values' own memory, 8 bytes each in window byte order, both ways.
func TestFloat64BytesAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: no view")
	}
	vals := []float64{1.5, -2, math.Inf(1)}
	b := Float64Bytes(vals)
	if len(b) != 24 || DecodeFloat64(b[8:]) != -2 {
		t.Fatalf("Float64Bytes = %x", b)
	}
	EncodeFloat64(b[16:], 0.25)
	if vals[2] != 0.25 {
		t.Fatalf("a write through the view left %v", vals[2])
	}
	if Float64Bytes(nil) != nil || len(Float64Bytes(vals[:0])) != 0 {
		t.Fatal("empty input gave a non-empty view")
	}
}

// TestGatherIntoShortDestination: a result buffer shorter than the type
// takes the leading bytes that fit (what the ack-time copy used to do),
// across block boundaries, and a nil one takes nothing.
func TestGatherIntoShortDestination(t *testing.T) {
	target := PutFloat64s([]float64{10, 11, 12, 13, 14, 15})
	d := Vector(Float64, 2, 2, 4)
	full := gather(d, target, 0)
	for _, n := range []int{0, 5, 16, 20, 32} {
		out := bytes.Repeat([]byte{0xEE}, n+4)
		gatherInto(out[:n], d, target, 0)
		if !bytes.Equal(out[:n], full[:n]) || !bytes.Equal(out[n:], []byte{0xEE, 0xEE, 0xEE, 0xEE}) {
			t.Fatalf("gatherInto %d bytes: %x", n, out)
		}
	}
	gatherInto(nil, d, target, 0)
}

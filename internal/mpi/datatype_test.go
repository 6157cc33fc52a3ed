package mpi

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBasicTypeSizes(t *testing.T) {
	cases := map[BasicType]int{Byte: 1, Int32: 4, Int64: 8, Float64: 8}
	for b, want := range cases {
		if b.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", b, b.Size(), want)
		}
	}
}

func TestDatatypeSizeExtent(t *testing.T) {
	cases := []struct {
		name         string
		dt           Datatype
		size, extent int
		contig       bool
	}{
		{"scalar double", Scalar(Float64), 8, 8, true},
		{"contig 10 doubles", TypeOf(Float64, 10), 80, 80, true},
		{"vector 4x2 stride 5", Vector(Float64, 4, 2, 5), 64, 136, false},
		{"vector stride==blocklen", Vector(Int32, 3, 2, 2), 24, 24, true},
		{"bytes", TypeOf(Byte, 100), 100, 100, true},
	}
	for _, c := range cases {
		if got := c.dt.Size(); got != c.size {
			t.Errorf("%s: Size = %d, want %d", c.name, got, c.size)
		}
		if got := c.dt.Extent(); got != c.extent {
			t.Errorf("%s: Extent = %d, want %d", c.name, got, c.extent)
		}
		if got := c.dt.Contiguous(); got != c.contig {
			t.Errorf("%s: Contiguous = %v, want %v", c.name, got, c.contig)
		}
		if err := c.dt.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", c.name, err)
		}
	}
}

func TestDatatypeValidateRejects(t *testing.T) {
	bad := []Datatype{
		{Basic: BasicType(9), Count: 1, BlockLen: 1, Stride: 1},
		{Basic: Float64, Count: 0, BlockLen: 1, Stride: 1},
		{Basic: Float64, Count: 1, BlockLen: 0, Stride: 1},
		{Basic: Float64, Count: 2, BlockLen: 3, Stride: 2}, // overlapping
	}
	for _, d := range bad {
		if d.Validate() == nil {
			t.Errorf("%+v validated", d)
		}
	}
}

func TestBlocksEnumeration(t *testing.T) {
	dt := Vector(Float64, 3, 2, 4)
	var offs, lens []int
	dt.Blocks(func(off, n int) { offs = append(offs, off); lens = append(lens, n) })
	wantOffs := []int{0, 32, 64}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] || lens[i] != 16 {
			t.Fatalf("blocks = %v/%v, want offs %v len 16", offs, lens, wantOffs)
		}
	}
	// Contiguous type yields a single block.
	n := 0
	TypeOf(Byte, 7).Blocks(func(off, ln int) {
		n++
		if off != 0 || ln != 7 {
			t.Errorf("contig block = (%d,%d)", off, ln)
		}
	})
	if n != 1 {
		t.Errorf("contig yielded %d blocks", n)
	}
}

func TestAccumulateSumFloat64(t *testing.T) {
	target := PutFloat64s([]float64{1, 2, 3, 4})
	src := PutFloat64s([]float64{10, 20})
	accumulate(OpSum, TypeOf(Float64, 2), target, 8, src)
	got := GetFloat64s(target)
	want := []float64{1, 12, 23, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAccumulateReplaceIsPut(t *testing.T) {
	target := PutFloat64s([]float64{1, 2, 3})
	accumulate(OpReplace, TypeOf(Float64, 2), target, 0, PutFloat64s([]float64{7, 8}))
	got := GetFloat64s(target)
	if got[0] != 7 || got[1] != 8 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestAccumulateVectorScattersSource(t *testing.T) {
	// Target: 6 doubles; vector of 3 blocks of 1, stride 2 -> elements 0,2,4.
	target := PutFloat64s([]float64{0, 0, 0, 0, 0, 0})
	src := PutFloat64s([]float64{1, 2, 3})
	accumulate(OpSum, Vector(Float64, 3, 1, 2), target, 0, src)
	got := GetFloat64s(target)
	want := []float64{1, 0, 2, 0, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGatherVector(t *testing.T) {
	target := PutFloat64s([]float64{10, 11, 12, 13, 14, 15})
	out := gather(Vector(Float64, 2, 2, 4), target, 0)
	got := GetFloat64s(out)
	want := []float64{10, 11, 14, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOpsOnIntTypes(t *testing.T) {
	tgt := PutInt64(5)
	accumulate(OpSum, Scalar(Int64), tgt, 0, PutInt64(3))
	if GetInt64(tgt) != 8 {
		t.Errorf("int64 sum = %d", GetInt64(tgt))
	}
	accumulate(OpMax, Scalar(Int64), tgt, 0, PutInt64(100))
	if GetInt64(tgt) != 100 {
		t.Errorf("int64 max = %d", GetInt64(tgt))
	}
	accumulate(OpMin, Scalar(Int64), tgt, 0, PutInt64(-1))
	if GetInt64(tgt) != -1 {
		t.Errorf("int64 min = %d", GetInt64(tgt))
	}
	accumulate(OpProd, Scalar(Int64), tgt, 0, PutInt64(-6))
	if GetInt64(tgt) != 6 {
		t.Errorf("int64 prod = %d", GetInt64(tgt))
	}

	b := []byte{10}
	accumulate(OpSum, Scalar(Byte), b, 0, []byte{5})
	if b[0] != 15 {
		t.Errorf("byte sum = %d", b[0])
	}

	i32 := []byte{0, 0, 0, 0}
	accumulate(OpSum, Scalar(Int32), i32, 0, []byte{7, 0, 0, 0})
	accumulate(OpMax, Scalar(Int32), i32, 0, []byte{3, 0, 0, 0})
	if i32[0] != 7 {
		t.Errorf("int32 = %d", i32[0])
	}
}

func TestOpFloatMinMax(t *testing.T) {
	tgt := PutFloat64s([]float64{5})
	accumulate(OpMin, Scalar(Float64), tgt, 0, PutFloat64s([]float64{2}))
	if GetFloat64s(tgt)[0] != 2 {
		t.Error("float min")
	}
	accumulate(OpMax, Scalar(Float64), tgt, 0, PutFloat64s([]float64{9}))
	if GetFloat64s(tgt)[0] != 9 {
		t.Error("float max")
	}
	accumulate(OpProd, Scalar(Float64), tgt, 0, PutFloat64s([]float64{0.5}))
	if GetFloat64s(tgt)[0] != 4.5 {
		t.Error("float prod")
	}
}

func TestBitwiseOps(t *testing.T) {
	tgt := PutInt64(0b1100)
	accumulate(OpBAnd, Scalar(Int64), tgt, 0, PutInt64(0b1010))
	if GetInt64(tgt) != 0b1000 {
		t.Errorf("band = %b", GetInt64(tgt))
	}
	accumulate(OpBOr, Scalar(Int64), tgt, 0, PutInt64(0b0011))
	if GetInt64(tgt) != 0b1011 {
		t.Errorf("bor = %b", GetInt64(tgt))
	}
	accumulate(OpBXor, Scalar(Int64), tgt, 0, PutInt64(0b1111))
	if GetInt64(tgt) != 0b0100 {
		t.Errorf("bxor = %b", GetInt64(tgt))
	}
	// Full-width values survive.
	tgt = PutInt64(0)
	v := int64(-6148914691236517206) // 0xAAAA... pattern
	accumulate(OpBXor, Scalar(Int64), tgt, 0, PutInt64(v))
	if GetInt64(tgt) != v {
		t.Errorf("bxor full width = %x", GetInt64(tgt))
	}
	if OpBAnd.String() != "MPI_BAND" || OpBOr.String() != "MPI_BOR" || OpBXor.String() != "MPI_BXOR" {
		t.Error("bitwise op strings")
	}
}

func TestBitwiseOnDoublePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	tgt := PutFloat64s([]float64{1})
	accumulate(OpBXor, Scalar(Float64), tgt, 0, PutFloat64s([]float64{2}))
}

func TestNoOpLeavesTargetUntouched(t *testing.T) {
	tgt := PutFloat64s([]float64{42})
	accumulate(OpNoOp, Scalar(Float64), tgt, 0, PutFloat64s([]float64{7}))
	if GetFloat64s(tgt)[0] != 42 {
		t.Error("OpNoOp modified target")
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1.5, 3.14159, 1e300, -1e-300}
	got := GetFloat64s(PutFloat64s(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("round trip %v -> %v", vals[i], got[i])
		}
	}
}

func TestStringers(t *testing.T) {
	if Float64.String() != "MPI_DOUBLE" || Byte.String() != "MPI_BYTE" {
		t.Error("basic type strings")
	}
	if OpSum.String() != "MPI_SUM" || OpReplace.String() != "MPI_REPLACE" {
		t.Error("op strings")
	}
	if Scalar(Float64).String() == "" || Vector(Byte, 2, 1, 3).String() == "" {
		t.Error("datatype strings")
	}
	if LockExclusive.String() != "MPI_LOCK_EXCLUSIVE" || LockShared.String() != "MPI_LOCK_SHARED" {
		t.Error("lock strings")
	}
	for _, k := range []OpKind{KindPut, KindGet, KindAcc, KindGetAcc, KindFetchOp, KindCAS} {
		if k.String() == "" {
			t.Error("op kind string empty")
		}
	}
}

// Property: Blocks covers exactly Size() bytes, with nondecreasing
// non-overlapping offsets bounded by Extent().
func TestBlocksCoverageProperty(t *testing.T) {
	f := func(count, blockLen, pad uint8) bool {
		c, bl := int(count%8)+1, int(blockLen%8)+1
		dt := Vector(Float64, c, bl, bl+int(pad%8))
		if dt.Validate() != nil {
			return false
		}
		total, prevEnd := 0, -1
		ok := true
		dt.Blocks(func(off, n int) {
			if off <= prevEnd {
				ok = false
			}
			prevEnd = off + n - 1
			total += n
		})
		return ok && total == dt.Size() && prevEnd+1 == dt.Extent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulate with OpSum then OpSum of the negation restores
// the target (float64 exactness for integers-as-floats).
func TestAccumulateInverseProperty(t *testing.T) {
	f := func(vals []int8, start []int8) bool {
		if len(vals) == 0 {
			return true
		}
		n := len(vals)
		if len(start) < n {
			return true
		}
		tv := make([]float64, n)
		sv := make([]float64, n)
		nv := make([]float64, n)
		for i := 0; i < n; i++ {
			tv[i] = float64(start[i])
			sv[i] = float64(vals[i])
			nv[i] = -float64(vals[i])
		}
		tgt := PutFloat64s(tv)
		dt := TypeOf(Float64, n)
		accumulate(OpSum, dt, tgt, 0, PutFloat64s(sv))
		accumulate(OpSum, dt, tgt, 0, PutFloat64s(nv))
		got := GetFloat64s(tgt)
		for i := range tv {
			if got[i] != tv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: gather after accumulate(OpReplace) returns the source.
func TestPutGatherRoundTripProperty(t *testing.T) {
	f := func(count, blockLen, pad uint8, seed int64) bool {
		c, bl := int(count%6)+1, int(blockLen%6)+1
		dt := Vector(Float64, c, bl, bl+int(pad%6))
		tgt := make([]byte, dt.Extent()+16)
		src := make([]byte, dt.Size())
		for i := range src {
			src[i] = byte(seed + int64(i)*31)
		}
		accumulate(OpReplace, dt, tgt, 8, src)
		got := gather(dt, tgt, 8)
		return bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

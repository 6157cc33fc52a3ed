package ga

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

func gaConfig(n, ppn int) mpi.Config {
	nodes := (n + ppn - 1) / ppn
	return mpi.Config{
		Machine:  cluster.Machine{Nodes: nodes, CoresPerNode: 24, NUMAPerNode: 2},
		N:        n,
		PPN:      ppn,
		Net:      netmodel.CrayXC30(),
		Seed:     3,
		Validate: true,
	}
}

// runPlain runs main over plain MPI.
func runPlain(t *testing.T, n, ppn int, main func(env mpi.Env)) *mpi.World {
	t.Helper()
	w, err := mpi.Run(gaConfig(n, ppn), func(r *mpi.Rank) { main(r) })
	if err != nil {
		t.Fatal(err)
	}
	if v := w.Validator(); v != nil && !v.Ok() {
		t.Fatalf("validator: %v", v.Violations())
	}
	return w
}

// runCasper runs main over Casper with g ghosts per node.
func runCasper(t *testing.T, n, ppn, g int, main func(env mpi.Env)) *mpi.World {
	t.Helper()
	return runCasperCfg(t, n, ppn, core.Config{NumGhosts: g}, main)
}

func runCasperCfg(t *testing.T, n, ppn int, ccfg core.Config, main func(env mpi.Env)) *mpi.World {
	t.Helper()
	w, err := mpi.Run(gaConfig(n, ppn), func(r *mpi.Rank) {
		p, ghost := core.Init(r, ccfg)
		if ghost {
			return
		}
		main(p)
		p.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := w.Validator(); v != nil && !v.Ok() {
		t.Fatalf("validator: %v", v.Violations())
	}
	return w
}

func TestProcGrid(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 12: {3, 4},
		16: {4, 4}, 20: {4, 5}, 7: {1, 7},
	}
	for n, want := range cases {
		pr, pc := procGrid(n)
		if pr != want[0] || pc != want[1] {
			t.Errorf("procGrid(%d) = %dx%d, want %dx%d", n, pr, pc, want[0], want[1])
		}
		if pr*pc != n {
			t.Errorf("procGrid(%d) does not cover all ranks", n)
		}
	}
}

func TestTileBoundsPartition(t *testing.T) {
	runPlain(t, 6, 6, func(env mpi.Env) {
		a := MustCreate(env, "t", 10, 9)
		if env.Rank() != 0 {
			a.Sync()
			a.Destroy()
			return
		}
		covered := map[[2]int]int{}
		for r := 0; r < env.Size(); r++ {
			r0, r1, c0, c1 := a.tileBounds(r)
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					covered[[2]int{i, j}]++
					if a.ownerOf(i, j) != r {
						t.Errorf("ownerOf(%d,%d) = %d, want %d", i, j, a.ownerOf(i, j), r)
					}
				}
			}
		}
		if len(covered) != 90 {
			t.Errorf("covered %d elements, want 90", len(covered))
		}
		for k, n := range covered {
			if n != 1 {
				t.Errorf("element %v covered %d times", k, n)
			}
		}
		a.Sync()
		a.Destroy()
	})
}

func TestPutGetRoundTripAcrossTiles(t *testing.T) {
	// A patch spanning all four tiles of a 2x2 grid.
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "x", 8, 8)
		a.Fill(0)
		if env.Rank() == 0 {
			patch := make([]float64, 6*6)
			for i := range patch {
				patch[i] = float64(i + 1)
			}
			a.Put(1, 7, 1, 7, patch)
			got := make([]float64, 6*6)
			a.Get(1, 7, 1, 7, got)
			for i := range patch {
				if got[i] != patch[i] {
					t.Errorf("elem %d: got %v want %v", i, got[i], patch[i])
				}
			}
		}
		a.Sync()
		a.Destroy()
	})
}

func TestGetReflectsRemoteLocalData(t *testing.T) {
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "x", 4, 4)
		r0, r1, c0, c1 := a.Distribution()
		vals := make([]float64, (r1-r0)*(c1-c0))
		for i := range vals {
			vals[i] = float64(env.Rank()*100 + i)
		}
		a.SetLocal(vals)
		a.Sync()
		if env.Rank() == 1 {
			// Read rank 3's tile (bottom-right 2x2 of a 4x4 on 2x2 grid).
			got := make([]float64, 4)
			a.Get(2, 4, 2, 4, got)
			want := []float64{300, 301, 302, 303}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v", got)
				}
			}
		}
		a.Sync()
		a.Destroy()
	})
}

func TestAccSumsAcrossRanks(t *testing.T) {
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "acc", 4, 4)
		a.Fill(1)
		patch := []float64{1, 1, 1, 1}
		// Everyone accumulates 2*1 into the same cross-tile patch.
		a.Acc(1, 3, 1, 3, patch, 2)
		a.Sync()
		if env.Rank() == 0 {
			got := make([]float64, 4)
			a.Get(1, 3, 1, 3, got)
			for i, v := range got {
				if v != 1+2*4 {
					t.Fatalf("elem %d = %v, want 9", i, v)
				}
			}
		}
		a.Sync()
		a.Destroy()
	})
}

func TestCreateRejectsTinyArrays(t *testing.T) {
	runPlain(t, 4, 4, func(env mpi.Env) {
		if _, err := Create(env, "tiny", 1, 1); err == nil {
			t.Error("no error for array smaller than grid")
		}
		// All ranks got the error before any collective call, so the
		// world terminates cleanly.
	})
}

func TestAccessorsAndLocal(t *testing.T) {
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "meta", 6, 8)
		if a.Name() != "meta" {
			t.Error("name")
		}
		if r, c := a.Dims(); r != 6 || c != 8 {
			t.Error("dims")
		}
		if a.pr != 2 || a.pc != 2 {
			t.Errorf("grid %dx%d", a.pr, a.pc)
		}
		r0, r1, c0, c1 := a.Distribution()
		if (r1-r0)*(c1-c0) != len(a.Local()) {
			t.Error("local size mismatch")
		}
		a.Sync()
		a.Destroy()
	})
}

func TestCounterProducesUniqueDenseTasks(t *testing.T) {
	var all []int64
	runPlain(t, 4, 4, func(env mpi.Env) {
		c := NewCounter(env)
		for i := 0; i < 5; i++ {
			all = append(all, c.Next())
		}
		env.CommWorld().Barrier()
		c.Destroy()
	})
	if len(all) != 20 {
		t.Fatalf("%d tasks", len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("tasks not dense/unique: %v", all)
		}
	}
}

func TestGAOverCasperMatchesPlain(t *testing.T) {
	// The same GA program must produce identical data over Casper.
	run := func(casper bool) []float64 {
		var got []float64
		main := func(env mpi.Env) {
			a := MustCreate(env, "w", 8, 8)
			a.Fill(0)
			patch := []float64{1, 2, 3, 4}
			a.Acc(3, 5, 3, 5, patch, float64(env.Rank()+1))
			a.Sync()
			if env.Rank() == 0 {
				got = make([]float64, 4)
				a.Get(3, 5, 3, 5, got)
			}
			a.Sync()
			a.Destroy()
		}
		if casper {
			runCasper(t, 6, 6, 2, main) // 4 users
		} else {
			runPlain(t, 4, 4, main)
		}
		return got
	}
	plain := run(false)
	casper := run(true)
	// Both have 4 user ranks: sum of alphas = 1+2+3+4 = 10.
	for i := range plain {
		want := float64(10 * (i + 1))
		if plain[i] != want || casper[i] != want {
			t.Fatalf("plain %v casper %v, want %v at %d", plain, casper, want, i)
		}
	}
}

func TestCounterOverCasper(t *testing.T) {
	var all []int64
	runCasper(t, 6, 6, 2, func(env mpi.Env) {
		c := NewCounter(env)
		for i := 0; i < 4; i++ {
			all = append(all, c.Next())
		}
		env.CommWorld().Barrier()
		c.Destroy()
	})
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != 16 {
		t.Fatalf("%d tasks", len(all))
	}
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("tasks not dense: %v", all)
		}
	}
}

// Property: packPiece encodes exactly the overlap rectangle, scaled.
func TestPackPatchProperty(t *testing.T) {
	f := func(rows, cols uint8, alpha int8) bool {
		pr := int(rows%6) + 2
		pc := int(cols%6) + 2
		buf := make([]float64, pr*pc)
		for i := range buf {
			buf[i] = float64(i)
		}
		// Overlap: inner rectangle.
		or0, or1 := 1, pr
		oc0, oc1 := 1, pc
		raw := make([]byte, 8*(or1-or0)*(oc1-oc0))
		packPiece(raw, buf, 0, 0, pc, or0, or1, oc0, oc1, float64(alpha))
		out := mpi.GetFloat64s(raw)
		k := 0
		for i := or0; i < or1; i++ {
			for j := oc0; j < oc1; j++ {
				if out[k] != float64(i*pc+j)*float64(alpha) {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadPatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "bad", 4, 4)
		if env.Rank() == 0 {
			a.Get(0, 9, 0, 1, make([]float64, 100))
		}
		a.Sync()
	})
}

// TestPatchOpsMatchDenseReference drives Put, Acc and Get with seeded
// random patches and checks every Get, and the final tiles, against a
// dense local matrix. Every rank draws the same stream and applies every
// rank's operation to its own copy of the reference, so all copies agree.
// Values are small multiples of 0.5: every sum is exact in any order.
//
// Besides free patches, each seed draws shaped ones: inside one tile, as
// wide as one tile column over two owners, and over four owners. A patch
// inside one tile column has only full-width pieces, which go straight
// to and from the caller's buffer; a wider one has only strided pieces,
// which are staged. The test watches the handle's scratch buffer to see
// which path each operation took, holds it to that rule, and fails unless
// every seed took each path, with alpha 1 and not 1, and met patches of
// one, two and four owners.
func TestPatchOpsMatchDenseReference(t *testing.T) {
	const rows, cols, rounds = 23, 19, 12
	inPlace := mpi.Float64Bytes([]float64{0}) != nil // false on a big-endian host: everything stages
	// seed and seen are set for each run of program: the stream it draws
	// from and the count of each path its operations took.
	var seed int64
	var seen map[string]int
	program := func(env mpi.Env) {
		me, n := env.Rank(), env.Size()
		a := MustCreate(env, "prop", rows, cols)
		a.Fill(0.5)
		ref := make([]float64, rows*cols)
		for i := range ref {
			ref[i] = 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		type patch struct {
			r0, r1, c0, c1 int
			vals           []float64
		}
		// span draws [lo, hi) inside [from, to), crossing at when at > from.
		span := func(from, at, to int) (lo, hi int) {
			if at <= from {
				lo = from + rng.Intn(to-from)
				return lo, lo + 1 + rng.Intn(to-lo)
			}
			return from + rng.Intn(at-from), at + 1 + rng.Intn(to-at)
		}
		// draw returns a free patch for shape 0, else one of the shapes:
		// 1 inside one tile, 2 across two tile rows of one tile column,
		// 3 across two tile rows and two tile columns.
		draw := func(shape int) patch {
			var p patch
			if shape == 0 {
				p.r0, p.c0 = rng.Intn(rows), rng.Intn(cols)
				p.r1, p.c1 = p.r0+1+rng.Intn(rows-p.r0), p.c0+1+rng.Intn(cols-p.c0)
			} else {
				gi, gj := rng.Intn(a.pr-1), rng.Intn(a.pc-1)
				rowCut, rowEnd := 0, (gi+1)*a.tr
				if shape >= 2 {
					rowCut, rowEnd = rowEnd, min(rowEnd+a.tr, rows)
				}
				colCut, colEnd := 0, (gj+1)*a.tc
				if shape == 3 {
					colCut, colEnd = colEnd, min(colEnd+a.tc, cols)
				}
				p.r0, p.r1 = span(gi*a.tr, rowCut, rowEnd)
				p.c0, p.c1 = span(gj*a.tc, colCut, colEnd)
			}
			p.vals = make([]float64, (p.r1-p.r0)*(p.c1-p.c0))
			for i := range p.vals {
				p.vals[i] = float64(rng.Intn(9) - 4)
			}
			return p
		}
		apply := func(p patch, alpha float64, replace bool) {
			k := 0
			for i := p.r0; i < p.r1; i++ {
				for j := p.c0; j < p.c1; j++ {
					if replace {
						ref[i*cols+j] = p.vals[k]
					} else {
						ref[i*cols+j] += alpha * p.vals[k]
					}
					k++
				}
			}
		}
		// run performs op, one of the caller's own operations on p, and
		// checks the path it took: it stages exactly when p has strided
		// pieces (it spans more than one tile column) or a scaled operand.
		run := func(what string, p patch, scaled bool, op func()) {
			prev := a.stg.scratch
			a.stg.scratch = nil
			op()
			staged := a.stg.scratch != nil
			if cap(prev) > cap(a.stg.scratch) {
				a.stg.scratch = prev
			}
			owners := 0
			a.visitOwners(p.r0, p.r1, p.c0, p.c1, func(int, int, int, int, int) { owners++ })
			full := p.c0/a.tc == (p.c1-1)/a.tc
			if want := !full || scaled || !inPlace; staged != want {
				t.Errorf("rank %d %s [%d,%d)x[%d,%d): staged %v, want %v", me, what, p.r0, p.r1, p.c0, p.c1, staged, want)
			}
			path := "/strided"
			if full {
				path = "/full-width"
			}
			if scaled {
				path += "/scaled"
			}
			seen[what+path]++
			seen[fmt.Sprintf("owners/%d", owners)]++
		}
		check := func(p patch, what string) {
			got := make([]float64, len(p.vals))
			run("get", p, false, func() { a.Get(p.r0, p.r1, p.c0, p.c1, got) })
			k := 0
			for i := p.r0; i < p.r1; i++ {
				for j := p.c0; j < p.c1; j++ {
					if got[k] != ref[i*cols+j] {
						t.Errorf("rank %d %s: Get [%d,%d)x[%d,%d) elem (%d,%d) = %v, reference %v",
							me, what, p.r0, p.r1, p.c0, p.c1, i, j, got[k], ref[i*cols+j])
						return
					}
					k++
				}
			}
		}
		whole := patch{0, rows, 0, cols, make([]float64, rows*cols)}
		for i := range whole.vals {
			whole.vals[i] = float64(i % 7)
		}
		one := patch{rows / 2, rows/2 + 1, cols / 2, cols/2 + 1, []float64{-3}}

		// The staging buffer grows to the whole array, serves a single
		// element, then the whole array again.
		if me == 0 {
			a.Put(whole.r0, whole.r1, whole.c0, whole.c1, whole.vals)
		}
		apply(whole, 1, true)
		a.Sync()
		check(whole, "large")
		a.Acc(one.r0, one.r1, one.c0, one.c1, one.vals, 0.5)
		for q := 0; q < n; q++ {
			apply(one, 0.5, false)
		}
		a.Sync()
		check(one, "small after large")
		check(whole, "large after small")
		a.Sync()

		alphas := []float64{1, -2, 0.5, 3}
		for round := 0; round < rounds; round++ {
			// One writer replaces a patch.
			p := draw(round % 4)
			if me == round%n {
				run("put", p, false, func() { a.Put(p.r0, p.r1, p.c0, p.c1, p.vals) })
			}
			apply(p, 1, true)
			a.Sync()
			// Everyone accumulates its own patch, concurrently.
			for q := 0; q < n; q++ {
				p, alpha := draw((round*n+q)%4), alphas[(round+q)%len(alphas)]
				if q == me {
					run("acc", p, alpha != 1, func() { a.Acc(p.r0, p.r1, p.c0, p.c1, p.vals, alpha) })
				}
				apply(p, alpha, false)
			}
			a.Sync()
			// Everyone reads its own patch.
			for q := 0; q < n; q++ {
				if p := draw((round + q) % 4); q == me {
					check(p, "random")
				}
			}
			a.Sync()
		}
		r0, r1, c0, c1 := a.Distribution()
		loc := a.Local()
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				if got := loc[(i-r0)*(c1-c0)+(j-c0)]; got != ref[i*cols+j] {
					t.Errorf("rank %d: local (%d,%d) = %v, reference %v", me, i, j, got, ref[i*cols+j])
					return
				}
			}
		}
		a.Destroy()
	}
	covered := func(t *testing.T) {
		t.Helper()
		for _, k := range []string{
			"get/full-width", "get/strided", "put/full-width", "put/strided",
			"acc/full-width", "acc/full-width/scaled", "acc/strided", "acc/strided/scaled",
			"owners/1", "owners/2", "owners/4",
		} {
			if seen[k] == 0 {
				t.Errorf("no %s operation: %v", k, seen)
			}
		}
	}
	seeds := []int64{20150525, 7, 42}
	t.Run("mpi", func(t *testing.T) {
		for _, s := range seeds {
			seed, seen = s, map[string]int{}
			t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
				runPlain(t, 12, 6, program) // 3x4 grid, uneven 8x5 tiles
				covered(t)
			})
		}
	})
	for _, b := range []core.Binding{core.BindRank, core.BindSegment} {
		b := b
		t.Run("casper/"+b.String(), func(t *testing.T) {
			for _, s := range seeds {
				seed, seen = s, map[string]int{}
				t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
					// 12 users on two nodes; under segment binding each node's two
					// ghosts own half of the node's tiles, so pieces split.
					w := runCasperCfg(t, 16, 8, core.Config{NumGhosts: 2, Binding: b}, program)
					covered(t)
					split := w.Summary().Counters[mpi.Split] // counted by user ranks only
					if (b == core.BindSegment) != (split > 0) {
						t.Errorf("%v binding split %d pieces", b, split)
					}
				})
			}
		})
	}
}

// TestSharedStagingMatchesDenseReference: three arrays of different
// shapes stage through one buffer (ShareStaging, as tce.Run's do). Each
// rank interleaves staged Gets, Accs and Puts over the three arrays, all
// on patches that span two tile columns, each inside the rank's own band
// of rows so that no other rank's operation races it, and checks every
// Get against a dense reference; after each round every rank reads a
// whole array, every band. Every rank draws every rank's operations from
// one stream and applies them all to its reference, so all copies agree.
func TestSharedStagingMatchesDenseReference(t *testing.T) {
	dims := [3][2]int{{36, 29}, {24, 35}, {48, 19}}
	const rounds, opsPerRank = 6, 9
	alphas := []float64{1, 0.5, -2}
	program := func(env mpi.Env) {
		me, n := env.Rank(), env.Size()
		var arrs [3]*Array
		var refs [3][]float64
		for x, d := range dims {
			arrs[x] = MustCreate(env, fmt.Sprintf("shared%d", x), d[0], d[1])
			arrs[x].Fill(0.5)
			refs[x] = make([]float64, d[0]*d[1])
			for i := range refs[x] {
				refs[x][i] = 0.5
			}
		}
		ShareStaging(arrs[0], arrs[1], arrs[2])
		if arrs[1].stg != arrs[0].stg || arrs[2].stg != arrs[0].stg {
			t.Fatalf("rank %d: the arrays do not share their staging", me)
		}
		check := func(x, r0, r1, c0, c1 int, what string) {
			a, ref := arrs[x], refs[x]
			got := make([]float64, (r1-r0)*(c1-c0))
			a.Get(r0, r1, c0, c1, got)
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					if g, w := got[(i-r0)*(c1-c0)+(j-c0)], ref[i*a.cols+j]; g != w {
						t.Errorf("rank %d %s: %s (%d,%d) = %v, reference %v", me, what, a.name, i, j, g, w)
						return
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(20150525))
		for round := 0; round < rounds; round++ {
			for q := 0; q < n; q++ {
				for o := 0; o < opsPerRank; o++ {
					x := o % 3 // consecutive operations go to different arrays
					a, ref := arrs[x], refs[x]
					h := a.rows / n // rank q's band is rows [q*h, q*h+h)
					r0 := q*h + rng.Intn(h)
					r1 := r0 + 1 + rng.Intn(q*h+h-r0)
					c0, c1 := rng.Intn(a.tc), a.tc+1+rng.Intn(a.cols-a.tc)
					vals := make([]float64, (r1-r0)*(c1-c0))
					for i := range vals {
						vals[i] = float64(rng.Intn(9) - 4)
					}
					kind, alpha := rng.Intn(3), alphas[rng.Intn(len(alphas))]
					if kind == 0 {
						if q == me {
							check(x, r0, r1, c0, c1, "get in own band")
						}
						continue
					}
					k := 0
					for i := r0; i < r1; i++ {
						for j := c0; j < c1; j++ {
							if kind == 1 {
								ref[i*a.cols+j] += alpha * vals[k]
							} else {
								ref[i*a.cols+j] = vals[k]
							}
							k++
						}
					}
					if q != me {
						continue
					}
					if kind == 1 {
						a.Acc(r0, r1, c0, c1, vals, alpha)
					} else {
						a.Put(r0, r1, c0, c1, vals)
					}
				}
			}
			for _, a := range arrs {
				a.Sync()
			}
			x := round % 3
			check(x, 0, dims[x][0], 0, dims[x][1], "get of every band")
			arrs[x].Sync()
		}
		if arrs[0].stg.scratch == nil {
			t.Errorf("rank %d: nothing staged", me)
		}
		for _, a := range arrs {
			a.Destroy()
		}
	}
	t.Run("mpi", func(t *testing.T) { runPlain(t, 12, 6, program) })
	t.Run("casper", func(t *testing.T) {
		runCasperCfg(t, 16, 8, core.Config{NumGhosts: 2}, program) // 12 users
	})
}

// TestFullWidthPatchesStageAndAllocateNothing: a Get and an alpha-1 Acc
// of a patch one tile column wide over two row owners move their pieces
// straight from and into the caller's buffer, so in steady state they
// take no scratch buffer and allocate nothing, over plain MPI and over
// Casper. A scaled Acc of the same patch stages.
func TestFullWidthPatchesStageAndAllocateNothing(t *testing.T) {
	if mpi.Float64Bytes([]float64{0}) == nil {
		t.Skip("big-endian host: every piece stages")
	}
	for _, casper := range []bool{false, true} {
		var allocs float64
		var staged, scaledStaged bool
		cfg := gaConfig(12, 6) // 12 users either way: two nodes, two ghosts each under Casper
		if casper {
			cfg = gaConfig(16, 8)
		}
		cfg.Validate = false // the validator records every op
		_, err := mpi.Run(cfg, func(r *mpi.Rank) {
			var env mpi.Env = r
			if casper {
				p, ghost := core.Init(r, core.Config{NumGhosts: 2})
				if ghost {
					return
				}
				defer p.Finalize()
				env = p
			}
			a := MustCreate(env, "rows", 96, 96) // 3x4 grid of 32x24 tiles over 12 users
			a.Fill(1)
			if env.Rank() == 0 {
				buf := make([]float64, 40*24)
				allocs = testing.AllocsPerRun(16, func() {
					a.Get(20, 60, 24, 48, buf)
					a.Acc(20, 60, 24, 48, buf, 1)
				})
				staged = a.stg.scratch != nil
				a.Acc(20, 60, 24, 48, buf, 0.5)
				scaledStaged = a.stg.scratch != nil
			}
			a.Sync()
			a.Destroy()
		})
		if err != nil {
			t.Fatal(err)
		}
		if staged || allocs != 0 {
			t.Errorf("casper %v: a full-width Get+Acc staged %v and allocated %v objects, want false and 0", casper, staged, allocs)
		}
		if !scaledStaged {
			t.Errorf("casper %v: a scaled Acc did not stage", casper)
		}
	}
}

func TestSetLocalRejectsWrongLength(t *testing.T) {
	runPlain(t, 4, 4, func(env mpi.Env) {
		a := MustCreate(env, "tile", 4, 4) // 2x2 tiles
		for _, n := range []int{3, 5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("SetLocal accepted %d values for a 4-element tile", n)
					}
				}()
				a.SetLocal(make([]float64, n))
			}()
		}
		a.SetLocal([]float64{1, 2, 3, 4})
		if got := a.Local(); got[0] != 1 || got[3] != 4 {
			t.Errorf("Local() = %v", got)
		}
		a.Sync()
		a.Destroy()
	})
}

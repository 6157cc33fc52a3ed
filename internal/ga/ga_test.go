package ga

import (
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
		if pr, pc := a.Grid(); pr != 2 || pc != 2 {
			t.Errorf("grid %dx%d", pr, pc)
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
func TestPatchOpsMatchDenseReference(t *testing.T) {
	const rows, cols, rounds = 23, 19, 12
	program := func(env mpi.Env) {
		me, n := env.Rank(), env.Size()
		a := MustCreate(env, "prop", rows, cols)
		a.Fill(0.5)
		ref := make([]float64, rows*cols)
		for i := range ref {
			ref[i] = 0.5
		}
		rng := rand.New(rand.NewSource(20150525))
		type patch struct {
			r0, r1, c0, c1 int
			vals           []float64
		}
		draw := func() patch {
			r0, c0 := rng.Intn(rows), rng.Intn(cols)
			p := patch{r0: r0, r1: r0 + 1 + rng.Intn(rows-r0), c0: c0, c1: c0 + 1 + rng.Intn(cols-c0)}
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
		check := func(p patch, what string) {
			got := make([]float64, len(p.vals))
			a.Get(p.r0, p.r1, p.c0, p.c1, got)
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
			p := draw()
			if me == round%n {
				a.Put(p.r0, p.r1, p.c0, p.c1, p.vals)
			}
			apply(p, 1, true)
			a.Sync()
			// Everyone accumulates its own patch, concurrently.
			for q := 0; q < n; q++ {
				p, alpha := draw(), alphas[rng.Intn(len(alphas))]
				if q == me {
					a.Acc(p.r0, p.r1, p.c0, p.c1, p.vals, alpha)
				}
				apply(p, alpha, false)
			}
			a.Sync()
			// Everyone reads its own patch.
			for q := 0; q < n; q++ {
				if p := draw(); q == me {
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
	t.Run("mpi", func(t *testing.T) { runPlain(t, 12, 6, program) }) // 3x4 grid, uneven 8x5 tiles
	for _, b := range []core.Binding{core.BindRank, core.BindSegment} {
		b := b
		t.Run("casper/"+b.String(), func(t *testing.T) {
			// 12 users on two nodes; under segment binding each node's two
			// ghosts own half of the node's tiles, so pieces split.
			var split int64
			runCasperCfg(t, 16, 8, core.Config{NumGhosts: 2, Binding: b}, func(env mpi.Env) {
				program(env)
				split += env.(*core.Process).Stats().Split
			})
			if (b == core.BindSegment) != (split > 0) {
				t.Errorf("%v binding split %d pieces", b, split)
			}
		})
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

package bench

import (
	"strings"
	"testing"
)

// tiny returns fast options for shape tests.
func tiny() Options { return Options{Scale: 0.12, Seed: 42} }

// SeriesByName returns the named series.
func (r *Result) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

func mustSeries(t *testing.T, r *Result, name string) []float64 {
	t.Helper()
	s, ok := r.SeriesByName(name)
	if !ok {
		var names []string
		for _, ss := range r.Series {
			names = append(names, ss.Name)
		}
		t.Fatalf("series %q missing (have %v)", name, names)
	}
	if len(s.Y) != len(r.X) {
		t.Fatalf("series %q has %d points for %d xs", name, len(s.Y), len(r.X))
	}
	return s.Y
}

func last(ys []float64) float64 { return ys[len(ys)-1] }

func runExp(t *testing.T, id string, o Options) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res := e.Run(o)
	if len(res.X) == 0 || len(res.Series) == 0 {
		t.Fatalf("%s: empty result", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl1", "abl2", "abl3",
		"faultapp", "faultchaos", "faultrecover", "faultsweep", "faultzero",
		"fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig7c",
		"fig8a", "fig8b", "fig8c", "overload", "tab1",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Figure == "" || all[i].Title == "" || all[i].Run == nil {
			t.Fatalf("%s: incomplete registration", id)
		}
	}
	if _, ok := Get("nonsense"); ok {
		t.Fatal("Get accepted unknown id")
	}
}

func TestFig3aShape(t *testing.T) {
	r := runExp(t, "fig3a", tiny())
	orig := mustSeries(t, r, "Original MPI")
	def := mustSeries(t, r, "Casper (default)")
	lock := mustSeries(t, r, "Casper (lock)")
	lockall := mustSeries(t, r, "Casper (lockall)")
	fence := mustSeries(t, r, "Casper (fence)")
	i := len(r.X) - 1
	if !(orig[i] < lockall[i] && lockall[i] < lock[i] && lock[i] < def[i]) {
		t.Fatalf("cost ordering violated: orig=%v lockall=%v lock=%v default=%v",
			orig[i], lockall[i], lock[i], def[i])
	}
	if fence[i] != lockall[i] {
		t.Fatalf("fence hint (%v) should equal lockall hint (%v): one active window each",
			fence[i], lockall[i])
	}
	// Original grows with local process count.
	if orig[i] <= orig[0] {
		t.Fatal("original allocation cost not growing")
	}
}

func TestFig3bOverheadAmortizes(t *testing.T) {
	r := runExp(t, "fig3b", tiny())
	ov := mustSeries(t, r, "Fence overhead %")
	if ov[0] <= ov[len(ov)-1] {
		t.Fatalf("fence overhead should decline with ops: %v", ov)
	}
	if ov[0] < 20 {
		t.Fatalf("small-op fence overhead should be large, got %v%%", ov[0])
	}
	cf := mustSeries(t, r, "Casper Fence")
	of := mustSeries(t, r, "Original Fence")
	for i := range cf {
		if cf[i] < of[i] {
			t.Fatalf("casper fence cheaper than original at %v ops", r.X[i])
		}
	}
}

func TestFig4aShape(t *testing.T) {
	r := runExp(t, "fig4a", Options{Scale: 1, Seed: 42})
	orig := mustSeries(t, r, "Original MPI")
	casper := mustSeries(t, r, "Casper")
	thread := mustSeries(t, r, "Thread")
	dmapp := mustSeries(t, r, "DMAPP")
	if last(orig) < 100 {
		t.Fatalf("original should stall ~128us at the end, got %v", last(orig))
	}
	if last(casper) > 20 {
		t.Fatalf("casper stalled: %v", last(casper))
	}
	// Casper is the cheapest async approach.
	if !(last(casper) < last(thread) && last(casper) < last(dmapp)) {
		t.Fatalf("casper not cheapest: c=%v t=%v d=%v", last(casper), last(thread), last(dmapp))
	}
}

func TestFig4bImprovementPeaksAndDecays(t *testing.T) {
	r := runExp(t, "fig4b", Options{Scale: 1, Seed: 42})
	imp := mustSeries(t, r, "Casper improvement %")
	peak, peakIdx := 0.0, 0
	for i, v := range imp {
		if v > peak {
			peak, peakIdx = v, i
		}
	}
	if peak < 20 {
		t.Fatalf("peak improvement %v%% too small", peak)
	}
	if peakIdx == len(imp)-1 {
		t.Fatal("improvement should decay after the crossover (~128 ops)")
	}
	if last(imp) >= peak {
		t.Fatal("no decay at the end")
	}
}

func TestFig4cInterruptsLinear(t *testing.T) {
	r := runExp(t, "fig4c", tiny())
	ints := mustSeries(t, r, "System interrupts")
	for i, x := range r.X {
		if ints[i] != x {
			t.Fatalf("interrupts[%d] = %v, want %v (one per accumulate)", i, ints[i], x)
		}
	}
	dmapp := mustSeries(t, r, "DMAPP")
	casper := mustSeries(t, r, "Casper")
	orig := mustSeries(t, r, "Original MPI")
	if last(dmapp) <= last(casper) {
		t.Fatal("DMAPP interrupt path should cost more than casper")
	}
	if last(orig) < 4000 {
		t.Fatalf("original should stall behind the 5ms dgemm, got %v", last(orig))
	}
}

func TestFig5aCasperWins(t *testing.T) {
	r := runExp(t, "fig5a", tiny())
	orig := mustSeries(t, r, "Original MPI")
	casper := mustSeries(t, r, "Casper")
	thread := mustSeries(t, r, "Thread")
	if last(casper) >= last(orig) {
		t.Fatalf("casper %v not better than original %v", last(casper), last(orig))
	}
	if last(thread) <= last(casper) {
		t.Fatal("thread should be more expensive than casper")
	}
}

func TestFig5bCasperMatchesHardware(t *testing.T) {
	r := runExp(t, "fig5b", tiny())
	casper := mustSeries(t, r, "Casper")
	dmapp := mustSeries(t, r, "DMAPP")
	orig := mustSeries(t, r, "Original MPI")
	// Hardware put/get: Casper within 15% of DMAPP (Section IV-B-2).
	ratio := last(casper) / last(dmapp)
	if ratio > 1.15 || ratio < 0.85 {
		t.Fatalf("casper/dmapp put ratio = %v, want ~1", ratio)
	}
	if last(orig) <= last(casper) {
		t.Fatal("software-put original should be slower")
	}
}

func TestFig5cCasperWinsOnFusion(t *testing.T) {
	r := runExp(t, "fig5c", tiny())
	if last(mustSeries(t, r, "Casper")) >= last(mustSeries(t, r, "Original MPI")) {
		t.Fatal("casper should win accumulate scaling on Fusion")
	}
}

func TestFig6MoreGhostsServeMoreLoad(t *testing.T) {
	for _, id := range []string{"fig6b", "fig6c"} {
		r := runExp(t, id, tiny())
		g2 := mustSeries(t, r, "Casper (2 Ghosts)")
		g8 := mustSeries(t, r, "Casper (8 Ghosts)")
		if last(g8) >= last(g2) {
			t.Fatalf("%s: 8 ghosts (%v) not faster than 2 (%v) at peak load",
				id, last(g8), last(g2))
		}
		sp := mustSeries(t, r, "Speedup (8G vs 2G)")
		if last(sp) < 1.2 {
			t.Fatalf("%s: 8G speedup %v too small", id, last(sp))
		}
	}
}

func TestFig6aGhostScaling(t *testing.T) {
	r := runExp(t, "fig6a", tiny())
	g2 := mustSeries(t, r, "Casper (2 Ghosts)")
	g8 := mustSeries(t, r, "Casper (8 Ghosts)")
	if last(g8) > last(g2) {
		t.Fatalf("8 ghosts (%v) worse than 2 (%v)", last(g8), last(g2))
	}
}

func TestFig7aRandomBeatsStatic(t *testing.T) {
	r := runExp(t, "fig7a", tiny())
	random := mustSeries(t, r, "Random")
	static := mustSeries(t, r, "Static")
	if last(random) >= last(static) {
		t.Fatalf("random (%v) not better than static (%v) under uneven puts",
			last(random), last(static))
	}
	sp := mustSeries(t, r, "Random/Static speedup")
	if last(sp) < 1.2 {
		t.Fatalf("random speedup %v too small", last(sp))
	}
}

func TestFig7bOpCountingBeatsRandom(t *testing.T) {
	r := runExp(t, "fig7b", tiny())
	opc := mustSeries(t, r, "OP-counting")
	random := mustSeries(t, r, "Random")
	if last(opc) >= last(random) {
		t.Fatalf("op-counting (%v) not better than random (%v) with mixed put/acc",
			last(opc), last(random))
	}
}

func TestFig7cByteCountingBeatsOpCounting(t *testing.T) {
	r := runExp(t, "fig7c", tiny())
	byc := mustSeries(t, r, "Byte-counting")
	opc := mustSeries(t, r, "OP-counting")
	random := mustSeries(t, r, "Random")
	if last(byc) >= last(opc) || last(byc) >= last(random) {
		t.Fatalf("byte-counting (%v) should beat op-counting (%v) and random (%v) on uneven sizes",
			last(byc), last(opc), last(random))
	}
}

func TestFig8CasperBeatsOriginal(t *testing.T) {
	for _, id := range []string{"fig8b", "fig8c"} {
		r := runExp(t, id, tiny())
		casper := mustSeries(t, r, "Casper")
		orig := mustSeries(t, r, "Original MPI")
		if last(casper) >= last(orig) {
			t.Fatalf("%s: casper (%v) not faster than original (%v)", id, last(casper), last(orig))
		}
	}
}

func TestFig8cThreadsLessEffective(t *testing.T) {
	r := runExp(t, "fig8c", tiny())
	casper := mustSeries(t, r, "Casper")
	to := mustSeries(t, r, "Thread(O)")
	td := mustSeries(t, r, "Thread(D)")
	if last(to) <= last(casper) || last(td) <= last(casper) {
		t.Fatalf("threads should be less effective than casper: c=%v to=%v td=%v",
			last(casper), last(to), last(td))
	}
}

func TestTab1Deployments(t *testing.T) {
	r := runExp(t, "tab1", tiny())
	comp := mustSeries(t, r, "Computing cores")
	async := mustSeries(t, r, "Async cores")
	want := [][2]float64{{24, 0}, {20, 4}, {24, 0}, {12, 12}}
	for i, w := range want {
		if comp[i] != w[0] || async[i] != w[1] {
			t.Fatalf("row %d: %v/%v, want %v", i, comp[i], async[i], w)
		}
	}
}

func TestAbl1OverlappingWindowsAvoidSerialization(t *testing.T) {
	r := runExp(t, "abl1", tiny())
	factor := mustSeries(t, r, "Serialization factor")
	if last(factor) <= 1.05 {
		t.Fatalf("shared window showed no serialization: %v", factor)
	}
	if factor[0] > 1.05 {
		t.Fatalf("single origin should not serialize: %v", factor[0])
	}
}

func TestAbl2LazyWinsForEmptyEpochs(t *testing.T) {
	r := runExp(t, "abl2", tiny())
	lazy := mustSeries(t, r, "Lazy acquisition")
	eager := mustSeries(t, r, "Eager acquisition")
	if lazy[0] >= eager[0] { // x = 0 ops
		t.Fatalf("lazy (%v) should beat eager (%v) on op-free epochs", lazy[0], eager[0])
	}
}

func TestAbl3SelfLocalFaster(t *testing.T) {
	r := runExp(t, "abl3", tiny())
	sp := mustSeries(t, r, "Speedup")
	if sp[0] < 2 {
		t.Fatalf("small self ops should be much faster locally: %v", sp[0])
	}
	if last(sp) >= sp[0] {
		t.Fatal("speedup should shrink as memcpy dominates")
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t", XLabel: "n", YLabel: "us",
		X:      []float64{1, 2},
		Series: []Series{{Name: "a", Y: []float64{1.5, 2.5}}, {Name: "b", Y: []float64{3}}},
		Notes:  []string{"note"},
	}
	tbl := r.Table()
	for _, want := range []string{"# x — t", "# note", "a", "b", "1.500", "-"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "n,a,b\n1,1.5,3\n2,2.5,\n") {
		t.Fatalf("csv = %q", csv)
	}
	if _, ok := r.SeriesByName("nope"); ok {
		t.Fatal("SeriesByName found nonexistent")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed != 42 {
		t.Fatalf("defaults: %+v", o)
	}
	if (Options{Scale: 0.01}).withDefaults().scaleInt(100, 10) != 10 {
		t.Fatal("scaleInt floor")
	}
	if (Options{Scale: 0.5}).withDefaults().scaleInt(100, 10) != 50 {
		t.Fatal("scaleInt half")
	}
}

func TestPow2Sweep(t *testing.T) {
	got := pow2Sweep(2, 16)
	want := []int{2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v", got)
		}
	}
}

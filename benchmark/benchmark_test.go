package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with childEnv set, and here that is
// this test binary.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		childMain(spec)
		return
	}
	os.Exit(m.Run())
}

func selfExe(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// benchmarkJSON is the shape of the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b, raw
}

// TestSchemaMatchesBenchmarkJSON: BENCHMARK.json is exactly what the
// workload and metric tables say, and stays inside the driver's limits.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b, raw := readBenchmarkJSON(t)
	if got := strings.TrimSpace(string(raw)); got != schemaJSON() {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go/workloads.go; regenerate it with `go run ./benchmark -schema > BENCHMARK.json`")
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("bad metric/workload name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v > %v", o.Name, o.Bound, m.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, better lower)")
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestEveryInternalPackageHasALayer: a package added under internal/
// must be given a layer before the benchmark will pass, so its CPU never
// silently lands in "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := internalLayer[e.Name()]
		if !ok {
			t.Errorf("repro/internal/%s has no layer: add it to internalLayer in layers.go", e.Name())
		} else if !known[l] {
			t.Errorf("repro/internal/%s maps to unknown layer %q", e.Name(), l)
		}
	}
	for pkg := range internalLayer {
		if _, err := os.Stat(filepath.Join("..", "internal", pkg)); err != nil {
			t.Errorf("internalLayer names repro/internal/%s, which does not exist", pkg)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":                                       layerSim,
		"repro/internal/sim.(*Queue[go.shape.*repro/internal/mpi.op]).Get":       layerSim,
		"repro/internal/mpi.(*Win).Accumulate":                                   layerMPI,
		"repro/internal/core.(*window).route":                                    layerCore,
		"repro/internal/cluster.(*Placement).SameNUMA":                           layerNetmodel,
		"repro/internal/bench.runFig5a.func1":                                    layerApps,
		"repro/internal/trace.(*Tracer).RecordService":                           layerFault,
		"runtime.mallocgc":                                                       layerMalloc,
		"runtime.memmove":                                                        layerMem,
		"runtime.gcBgMarkWorker":                                                 layerGC,
		"runtime.(*sweepLocked).sweep":                                           layerGC,
		"runtime.(*mspan).init":                                                  layerMalloc,
		"runtime.gopark":                                                         layerSched,
		"runtime.futex":                                                          layerSched,
		"math.Float64frombits;repro/internal/mpi.GetFloat64s":                    layerMPI,
		"repro/internal/netmodel.(*Memo).AMCost;repro/internal/mpi.(*Win).issue": layerNetmodel,
		"runtime.(*mspan).base;runtime.scanobject":                               layerMalloc,
		"fmt.Sprintf":                                                            layerOther,
		"main.childMain":                                                         layerOther,
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestProfileReader captures a real CPU profile of a small experiment
// and checks the in-tree proto reader and the bucket table on it: the
// samples are there, every one lands in a layer, the shares sum to one,
// and the simulator's own packages show up.
func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	e, _ := bench.Get("fig5a")
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		e.Run(bench.Options{Scale: smokeScale, Seed: goldenSeed, Parallel: 1})
	}
	pprof.StopCPUProfile()

	byFunc, samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 50 {
		t.Fatalf("only %d samples in a 400 ms profile at %d Hz", samples, profileHz)
	}
	byLayer := bucketByLayer(byFunc)
	if len(byLayer) != len(layers) {
		t.Fatalf("%d buckets, want %d", len(byLayer), len(layers))
	}
	var total, fromFuncs int64
	for _, ns := range byLayer {
		total += ns
	}
	for _, ns := range byFunc {
		fromFuncs += ns
	}
	if total != fromFuncs || total == 0 {
		t.Fatalf("buckets hold %d ns, functions %d ns", total, fromFuncs)
	}
	var sum float64
	for _, l := range layers {
		sum += float64(byLayer[l]) / float64(total)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v, want 1 +- 0.01", sum)
	}
	if byLayer[layerSim] == 0 || byLayer[layerMPI] == 0 {
		t.Errorf("fig5a profile shows no time in sim (%d ns) or mpi (%d ns): leaf frames are not resolving", byLayer[layerSim], byLayer[layerMPI])
	}
	if share := float64(byLayer[layerOther]) / float64(total); share > 0.10 {
		t.Errorf("other.cpu_share = %.3f > 0.10; heaviest: %+v", share, topOfLayer(byFunc, layerOther, 5))
	}
	if _, _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// tinyWorkload is one cheap pass, for the failure-accounting tests.
var tinyWorkload = workload{
	Name:   "tiny",
	Passes: []pass{{Exp: "faultapp", Scale: smokeScale}},
}

// TestCorruptedManifestIsAFailedPass: when golden.json disagrees with
// what a pass rendered, the pass counts as failed against attempted, the
// report names the experiment that drifted, and the command exits
// nonzero without a result line.
func TestCorruptedManifestIsAFailedPass(t *testing.T) {
	good, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	key := passKey(tinyWorkload.Passes[0])
	bad := map[string]string{}
	for k, v := range good.Digests {
		bad[k] = v
	}
	bad[key] = strings.Repeat("0", 64)

	var log bytes.Buffer
	cfg := runConfig{Seed: goldenSeed, Children: 2, Golden: bad, Exe: selfExe(t), Log: &log}
	wr := runWorkload(tinyWorkload, cfg, nil, map[string]sighting{})
	if wr.Attempted != 2 || wr.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", wr.Attempted, wr.Failed)
	}
	if len(wr.Failures) != 2 || !strings.Contains(wr.Failures[0], key+" (shards=0) drifted from golden.json") {
		t.Fatalf("failures do not name the drifted experiment %s: %q", key, wr.Failures)
	}
	if wr.EndToEnd != nil {
		t.Error("failed passes contributed timings")
	}
	cfg.Golden = good.Digests
	if wr := runWorkload(tinyWorkload, cfg, nil, map[string]sighting{}); wr.Failed != 0 || wr.EndToEnd["wall_s"].N != 2 {
		t.Fatalf("intact manifest: failed %d, wall_s n=%d; want 0 and 2 (%s)", wr.Failed, wr.EndToEnd["wall_s"].N, log.String())
	}

	// End to end through the command: swap the embedded manifest.
	corrupt, err := json.Marshal(goldenFile{Seed: goldenSeed, Digests: bad, AgreeingSeeds: good.AgreeingSeeds})
	if err != nil {
		t.Fatal(err)
	}
	saved, savedWorkloads := goldenJSON, workloads
	goldenJSON, workloads = corrupt, []workload{tinyWorkload}
	defer func() { goldenJSON, workloads = saved, savedWorkloads }()
	var stdout, stderr bytes.Buffer
	code := parentMain([]string{"-workload", "tiny", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 with a corrupted manifest")
	}
	if !strings.Contains(stderr.String(), key+" (shards=0) drifted") {
		t.Errorf("stderr does not say which experiment drifted:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "5 attempted, 5 failed") {
		t.Errorf("report does not count the failure against attempted:\n%s", stdout.String())
	}
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); strings.HasPrefix(lines[len(lines)-1], "{") {
		t.Errorf("a result line was printed although no pass succeeded: %s", lines[len(lines)-1])
	}
}

// TestChildPanicIsAFailedPass: a child that panics (here: an experiment
// that is not registered) is one failed pass; the benchmark carries on.
func TestChildPanicIsAFailedPass(t *testing.T) {
	wl := workload{Name: "panics", Passes: []pass{{Exp: "no-such-experiment", Scale: 1}}}
	var log bytes.Buffer
	wr := runWorkload(wl, runConfig{Seed: 7, Children: 1, Exe: selfExe(t), Log: &log}, nil, map[string]sighting{})
	if wr.Attempted != 1 || wr.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", wr.Attempted, wr.Failed)
	}
	if !strings.Contains(wr.Failures[0], "child died") || !strings.Contains(log.String(), "no-such-experiment") {
		t.Errorf("failure %q / log %q do not show the panic", wr.Failures, log.String())
	}
}

// TestDriftBetweenPassesIsAFailure: a pass whose bytes differ from an
// earlier pass of the same experiment, scale and seed fails, whichever
// engine rendered either — a sharded pass must equal its serial twin, at
// every seed.
func TestDriftBetweenPassesIsAFailure(t *testing.T) {
	sharded := pass{Exp: "fig5a", Scale: 0.5, Shards: 2}
	wl := workload{Passes: []pass{sharded}}
	res := childResult{Measured: []passResult{{pass: sharded, SHA256: "aa"}}}
	cfg := runConfig{Seed: 7}

	seen := map[string]sighting{}
	if err := checkChild(wl, res, cfg, seen); err != nil || seen["fig5a@0.5"] != (sighting{"aa", 2}) {
		t.Fatalf("first sighting rejected or not recorded: %v %v", err, seen)
	}
	if err := checkChild(wl, res, cfg, seen); err != nil {
		t.Fatalf("a repeat of the same bytes rejected: %v", err)
	}
	seen = map[string]sighting{"fig5a@0.5": {"bb", 2}}
	if err := checkChild(wl, res, cfg, seen); err == nil || !strings.Contains(err.Error(), "fig5a@0.5") {
		t.Fatalf("drift between passes not reported: %v", err)
	}
	seen = map[string]sighting{"fig5a@0.5": {"bb", 0}}
	if err := checkChild(wl, res, cfg, seen); err == nil || !strings.Contains(err.Error(), "(shards=0)") {
		t.Fatalf("sharded pass differing from its serial twin at seed 7: %v; want a failure that names the serial run", err)
	}
	cfg.Golden = map[string]string{"fig5a@0.5": "bb"}
	if err := checkChild(wl, res, cfg, map[string]sighting{}); err == nil || !strings.Contains(err.Error(), "drifted from golden.json") {
		t.Fatalf("sharded pass differing from the manifest's digest: %v", err)
	}
	cfg.Golden = nil
	res.Measured[0].Failed = true
	if err := checkChild(wl, res, cfg, map[string]sighting{}); err == nil {
		t.Fatal("Result.Failed not reported")
	}
}

// TestReferenceChild: where no manifest applies, a workload's reference
// passes run once, in a child of their own that counts as a pass
// attempted, unless the run has rendered them already.
func TestReferenceChild(t *testing.T) {
	wl := tinyWorkload
	wl.Reference = wl.Passes
	var log bytes.Buffer
	cfg := runConfig{Seed: 7, Children: 1, Exe: selfExe(t), Log: &log}
	seen := map[string]sighting{}
	if wr := runWorkload(wl, cfg, nil, seen); wr.Attempted != 2 || wr.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want 2 (reference + measured) and 0\n%s", wr.Attempted, wr.Failed, log.String())
	}
	if wr := runWorkload(wl, cfg, nil, seen); wr.Attempted != 1 || wr.Failed != 0 {
		t.Fatalf("reference already rendered: attempted %d failed %d, want 1 and 0", wr.Attempted, wr.Failed)
	}
	seen = map[string]sighting{}
	cfg.Seed, cfg.Golden = goldenSeed, map[string]string{passKey(wl.Passes[0]): "not what it renders"}
	if wr := runWorkload(wl, cfg, nil, seen); wr.Attempted != 1 || wr.Failed != 1 {
		t.Fatalf("under a manifest: attempted %d failed %d, want 1 (no reference child) and 1", wr.Attempted, wr.Failed)
	}
}

// TestSimulationSeed: 42 is itself, every other -seed draws from the
// committed table, the same seed every time.
func TestSimulationSeed(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.AgreeingSeeds) != agreeingSeedsWanted {
		t.Errorf("%d agreeing seeds, want %d", len(g.AgreeingSeeds), agreeingSeedsWanted)
	}
	if got := g.simulationSeed(goldenSeed); got != goldenSeed {
		t.Errorf("simulationSeed(%d) = %d", goldenSeed, got)
	}
	inTable := map[int64]bool{}
	for _, s := range g.AgreeingSeeds {
		if s <= 0 || s == goldenSeed || inTable[s] {
			t.Errorf("agreeing seed %d is not positive, is the golden seed, or repeats", s)
		}
		inTable[s] = true
	}
	drawn := map[int64]bool{}
	for _, seed := range []int64{0, 1, 7, 100, 101, -3, 1 << 40} {
		got := g.simulationSeed(seed)
		if !inTable[got] || got != g.simulationSeed(seed) {
			t.Errorf("simulationSeed(%d) = %d, not a stable draw from the table", seed, got)
		}
		drawn[got] = true
	}
	if len(drawn) < 5 {
		t.Errorf("seven -seed values drew only %d distinct simulation seeds", len(drawn))
	}
}

// TestSmoke is `-smoke`: every workload at scale 0.12 with one child,
// probes at minimum iterations, traced and untraced. It guards the
// schema — each name in BENCHMARK.json is emitted exactly once, with a
// finite value — while keeping tier-1 fast.
func TestSmoke(t *testing.T) {
	b, _ := readBenchmarkJSON(t)
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := parentMain([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	// Sized to finish in < 15 s (about 10 s on the reference host). Logged,
	// not asserted: a wall-clock assertion fails under -race and on a busy
	// host, and a flaky tier-1 test guards nothing.
	t.Logf("-smoke took %v", time.Since(start))
	rs, err := readSet(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Spans) == 0 {
		t.Error("trace.json holds no spans")
	}
	if len(rs.Workloads) != len(b.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(rs.Workloads), len(b.Workloads))
	}
	for i, wr := range rs.Workloads {
		if wr.Name != b.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, wr.Name, b.Workloads[i].Name)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d passes failed: %q", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
			continue
		}
		e2e, err := contractMetrics(wr, rs.Probes, false)
		if err != nil {
			t.Errorf("%s untraced: %v", wr.Name, err)
		}
		if len(e2e) != len(b.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, BENCHMARK.json names %d", wr.Name, len(e2e), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			v, ok := e2e[m.Name]
			if !ok || v["unit"] != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or with another unit: %v", wr.Name, m.Name, m.Unit, v)
			} else if v["value"].(float64) <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wr.Name, m.Name, v["value"])
			}
		}
		layer, err := contractMetrics(wr, rs.Probes, true)
		if err != nil {
			t.Errorf("%s traced: %v", wr.Name, err)
		}
		if len(layer) != len(b.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json names %d", wr.Name, len(layer), len(b.PerLayer))
		}
		for _, m := range b.PerLayer {
			if v, ok := layer[m.Name]; !ok || v["unit"] != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or with another unit: %v", wr.Name, m.Name, m.Unit, v)
			}
		}
		var shares float64
		for _, l := range layers {
			shares += wr.PerLayer[l+".cpu_share"].Median
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v, want 1 +- 0.01", wr.Name, shares)
		}
	}
	// The sharded row rendered the serial row's bytes.
	if a, s := rs.Workloads[0].Digests["fig5a@0.12/shards=0"], rs.Workloads[1].Digests["fig5a@0.12/shards=2"]; a == "" || a != s {
		t.Errorf("acc_alltoall_sharded digest %q != acc_alltoall digest %q", s, a)
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "wall_s", Better: "lower", Bound: 0.08}
	st := func(min, med, max float64) stat {
		return summarise("s", []float64{med, min, max, (min + med) / 2, (med + max) / 2})
	}
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"same and steady", st(0.99, 1, 1.02), st(0.98, 1.01, 1.03), verdictOK},
		{"worse beyond bound", st(0.99, 1, 1.02), st(1.08, 1.10, 1.12), verdictBeyond},
		{"within bound but base too noisy to tell", st(0.9, 1, 1.1), st(0.99, 1.02, 1.04), verdictUnresolved},
		{"noisy, yet every run of b beats every run of a", st(0.9, 1, 1.1), st(0.7, 0.75, 0.8), verdictOK},
		{"better by a lot", st(0.99, 1, 1.02), st(0.49, 0.5, 0.51), verdictOK},
	} {
		if got := judge(def, c.a, c.b); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "rate", Better: "higher", Bound: 0.08}
	if got := judge(up, st(99, 100, 101), st(89, 90, 91)); got != verdictBeyond {
		t.Errorf("higher-is-better drop of 10%%: %q", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) = [2.75, 5.5, 8.25]
	ten := summarise("s", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("ten samples: %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
	three := summarise("s", []float64{4, 1, 2})
	if got, want := quartileSpread(three), (4.0-1.0)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("three samples: %v, want %v", got, want)
	}
	if got := quartileSpread(summarise("s", []float64{3})); got != 0 {
		t.Errorf("one sample: %v, want 0", got)
	}
}

func TestCompareExactCounts(t *testing.T) {
	mk := func(events float64) resultSet {
		return resultSet{
			Workloads: []workloadResult{{Name: "w", PerLayer: map[string]stat{"sim.events": {Median: events, N: 1}}}},
			Probes:    map[string]float64{"mpi.events_per_acc": 5},
		}
	}
	var out bytes.Buffer
	if code := printComparison(&out, "a", "b", mk(100), mk(100)); code != 0 {
		t.Errorf("identical counts: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, "a", "b", mk(100), mk(99)); code == 0 || !strings.Contains(out.String(), verdictDiffers) {
		t.Errorf("a fused-away event went unnoticed: exit %d\n%s", code, out.String())
	}
}

func TestChildrenFor(t *testing.T) {
	for _, wl := range workloads {
		n := childrenFor(wl, runSeconds)
		if n < 3 || n > 8 {
			t.Errorf("%s: %d children for %d s", wl.Name, n, runSeconds)
		}
	}
	if n := childrenFor(workload{NominalWallS: 5}, 1); n != 3 {
		t.Errorf("floor: %d children, want 3", n)
	}
}

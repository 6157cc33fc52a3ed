// Command benchmark is the repository's performance observatory: six
// workloads measured end to end (host wall-clock, CPU, peak RSS, set-up)
// in fresh child processes, every output digest-checked, plus a traced
// mode that attributes each workload's CPU to layers and times each
// layer's public functions with probes. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       all workloads, untraced, 5 passes each
//	go run ./benchmark -trace 1              traced: layer attribution + probes
//	go run ./benchmark -workload wide_world -seed 7 -seconds 12 -trace 0
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -smoke                every name, tiny sizes, < 15 s
//	go run ./benchmark -update-golden        re-render golden.json (seed 42)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		childMain(spec)
		return
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// hostInfo is where a result set was measured.
type hostInfo struct {
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Kernel    string `json:"kernel"`
}

func thisHost() hostInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostInfo{
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Kernel: kernel,
	}
}

// resultSet is one run of the benchmark, as written to <out>/run.json
// (untraced) or <out>/trace.json (traced) and read back by -compare.
type resultSet struct {
	Host      hostInfo               `json:"host"`
	Seed      int64                  `json:"seed"`            // as given on the command line
	SimSeed   int64                  `json:"simulation_seed"` // what the simulator ran at
	Traced    bool                   `json:"traced"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Workloads []workloadResult       `json:"workloads"`
	Probes    map[string]float64     `json:"probes,omitempty"`
	TopOther  map[string][]funcShare `json:"top_other,omitempty"` // per workload: what "other" is made of
	Spans     []span                 `json:"spans,omitempty"`
}

func (rs *resultSet) attempted() (attempted, failed int) {
	for _, w := range rs.Workloads {
		attempted += w.Attempted
		failed += w.Failed
	}
	return
}

// setOptions selects what runSet runs.
type setOptions struct {
	Workloads []workload
	Seed      int64 // -seed
	SimSeed   int64 // goldenFile.simulationSeed(Seed)
	Children  func(workload) int
	Traced    bool
	Smoke     bool // smoke scale, minimum probe iterations
	Golden    map[string]string
	Exe       string
	Log       io.Writer
}

// runSet runs the workloads one after another and, when traced, the
// probes after them.
func runSet(o setOptions) resultSet {
	rs := resultSet{Host: thisHost(), Seed: o.Seed, SimSeed: o.SimSeed, Traced: o.Traced, Smoke: o.Smoke}
	var rec *spanRecorder
	if o.Traced {
		rec = newSpanRecorder(0)
		rs.TopOther = map[string][]funcShare{}
	}
	seen := map[string]sighting{}
	for _, wl := range o.Workloads {
		if o.Smoke {
			wl = wl.atScale(smokeScale)
		}
		cfg := runConfig{Seed: o.SimSeed, Children: o.Children(wl), Traced: o.Traced, Golden: o.Golden, Exe: o.Exe, Log: o.Log}
		wr := runWorkload(wl, cfg, rec, seen)
		if o.Traced {
			rs.TopOther[wl.Name] = wr.topOther
		}
		rs.Workloads = append(rs.Workloads, wr)
	}
	if o.Traced {
		rs.Probes = runProbes(rec, o.Smoke)
		rs.Spans = rec.spans()
	}
	return rs
}

// contractMetrics is the metric object of the driver's result line for
// one workload: every end-to-end metric of an untraced run, every
// per-layer metric of a traced one — each name exactly once.
func contractMetrics(wr workloadResult, probes map[string]float64, traced bool) (map[string]map[string]interface{}, error) {
	out := map[string]map[string]interface{}{}
	put := func(def metricDef, v float64) error {
		if _, dup := out[def.Name]; dup {
			return fmt.Errorf("metric %s emitted twice", def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", def.Name, v)
		}
		out[def.Name] = map[string]interface{}{"value": v, "unit": def.Unit}
		return nil
	}
	if !traced {
		for _, def := range endToEnd {
			st, ok := wr.EndToEnd[def.Name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", def.Name)
			}
			if err := put(def, st.Median); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, def := range workloadLayerDefs() {
		st, ok := wr.PerLayer[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		if err := put(def, st.Median); err != nil {
			return nil, err
		}
	}
	for _, def := range probeDefs {
		v, ok := probes[def.Name]
		if !ok {
			return nil, fmt.Errorf("probe metric %s was not measured", def.Name)
		}
		if err := put(def, v); err != nil {
			return nil, err
		}
	}
	if extra := len(wr.PerLayer) + len(probes) - len(out); extra != 0 {
		return nil, fmt.Errorf("%d metrics measured that BENCHMARK.json does not name", extra)
	}
	return out, nil
}

// printSet writes the human-readable report: every metric by name, with
// its unit.
func printSet(w io.Writer, rs resultSet) {
	h := rs.Host
	fmt.Fprintf(w, "# host: num_cpu=%d %s %s/%s kernel %s; seed %d (simulation seed %d)\n",
		h.NumCPU, h.GoVersion, h.GOOS, h.GOARCH, h.Kernel, rs.Seed, rs.SimSeed)
	row := func(name string, st stat) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s min %-12.6g max %-12.6g n=%d\n", name, st.Median, st.Unit, st.Min, st.Max, st.N)
	}
	for _, wr := range rs.Workloads {
		fmt.Fprintf(w, "\n%s: %d passes attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, def := range endToEnd {
			if st, ok := wr.EndToEnd[def.Name]; ok {
				row(def.Name, st)
			}
		}
		for _, def := range workloadLayerDefs() {
			if st, ok := wr.PerLayer[def.Name]; ok {
				row(def.Name, st)
			}
		}
		if wr.ProfileSamples > 0 {
			fmt.Fprintf(w, "  layer shares pooled over %d CPU-profile samples\n", wr.ProfileSamples)
		}
	}
	if len(rs.Probes) > 0 {
		fmt.Fprintf(w, "\nprobes (workload-independent):\n")
		for _, def := range probeDefs {
			if v, ok := rs.Probes[def.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
	a, f := rs.attempted()
	fmt.Fprintf(w, "\npasses: %d attempted, %d failed\n", a, f)
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parentMain is main without the process exit, so tests can drive it.
func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: all six)")
		seed         = fs.Int64("seed", goldenSeed, "42 runs the simulator at seed 42 and checks against golden.json; any other draws the simulation seed from golden.json's agreeing_seeds and checks by pass-to-pass identity")
		seconds      = fs.Float64("seconds", 0, "seconds of measured passes per workload; sizes the number of child processes (default: 5 children)")
		trace        = fs.Int("trace", 0, "1 = traced run: CPU-profile attribution, probes, spans to <out>/trace.json; 0 = end-to-end metrics")
		outDir       = fs.String("out", "benchmark/out", "directory for run.json / trace.json")
		smoke        = fs.Bool("smoke", false, "every workload at scale 0.12, one child, probes at minimum iterations, traced and untraced")
		compare      = fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		update       = fs.Bool("update-golden", false, "re-render benchmark/golden.json at seed 42 (run from the repository root)")
		schema       = fs.Bool("schema", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *schema:
		fmt.Fprintln(stdout, schemaJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: cannot find own executable to start children: %v\n", err)
		return 2
	}
	if *update {
		if err := updateGolden(exe); err != nil {
			fmt.Fprintf(stderr, "benchmark: -update-golden: %v\n", err)
			return 1
		}
		return 0
	}

	o := setOptions{Workloads: workloads, Seed: *seed, Traced: *trace == 1 || *smoke, Smoke: *smoke, Exe: exe, Log: stderr}
	if *workloadName != "" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		o.Workloads = []workload{wl}
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if o.SimSeed = golden.simulationSeed(o.Seed); o.SimSeed == goldenSeed {
		o.Golden = golden.Digests
	}
	o.Children = func(wl workload) int {
		switch {
		case o.Smoke:
			return 1
		case o.Traced:
			return profilePasses(wl)
		case *seconds > 0:
			return childrenFor(wl, *seconds)
		}
		return 5
	}

	rs := runSet(o)
	printSet(stdout, rs)
	file := "run.json"
	if o.Traced {
		file = "trace.json"
	}
	if err := writeJSON(filepath.Join(*outDir, file), rs); err != nil {
		fmt.Fprintf(stderr, "benchmark: write result set: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result set: %s\n", filepath.Join(*outDir, file))

	attempted, failed := rs.attempted()
	if *workloadName != "" {
		// The driver's contract: the last line of stdout is one JSON
		// object. Without a single successful pass there are no metrics
		// to report, and no line.
		metrics, err := contractMetrics(rs.Workloads[0], rs.Probes, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		line, err := json.Marshal(map[string]interface{}{
			"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// schemaJSON renders BENCHMARK.json from the workload and metric tables.
func schemaJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(out)
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds. childrenFor turns it into 3-5 children per workload.
const runSeconds = 12

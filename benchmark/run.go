package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// runConfig is how a set of workloads is run.
type runConfig struct {
	Seed     int64             // the simulation seed every pass runs at
	Children int               // measured passes per workload, one fresh process each
	Traced   bool              // CPU-profile the passes and record spans
	Golden   map[string]string // digest manifest; nil (any seed but goldenSeed) skips the check
	Exe      string            // binary to re-execute as a child
	Log      io.Writer         // progress and failure explanations
}

// procsOnHost caps a requested GOMAXPROCS at the host's CPUs.
func procsOnHost(want int) int {
	if n := runtime.NumCPU(); want > n {
		return n
	}
	return want
}

// spawnChild runs one child to completion. A child that dies (panic,
// nonzero exit, no result) is an error, which the caller counts as a
// failed pass.
func spawnChild(exe string, spec childSpec, stderr io.Writer) (childResult, error) {
	var res childResult
	pr, pw, err := os.Pipe()
	if err != nil {
		return res, fmt.Errorf("result pipe: %w", err)
	}
	defer pr.Close()
	spec.SpawnUnixNano = time.Now().UnixNano()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		pw.Close()
		return res, fmt.Errorf("encode child spec: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		childEnv+"="+string(specJSON),
		"GOMAXPROCS="+strconv.Itoa(procsOnHost(childProcs)))
	cmd.Stdout = stderr // experiment chatter must not reach our stdout
	cmd.Stderr = stderr
	cmd.ExtraFiles = []*os.File{pw}
	err = cmd.Start()
	pw.Close() // the child holds its own copy; ours would keep the read open
	if err != nil {
		return res, fmt.Errorf("start child: %w", err)
	}
	out, readErr := io.ReadAll(pr)
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("child died: %w", err)
	}
	if readErr != nil {
		return res, fmt.Errorf("read child result: %w", readErr)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("decode child result: %w", err)
	}
	return res, nil
}

// stat summarises the samples of one metric. With five children no
// percentile has ten samples beyond it, so: median, min, max, n.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarise(unit string, samples []float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := stat{Unit: unit, N: len(s), Samples: samples}
	if len(s) == 0 {
		return st
	}
	st.Min, st.Max = s[0], s[len(s)-1]
	if len(s)%2 == 1 {
		st.Median = s[len(s)/2]
	} else {
		st.Median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return st
}

// workloadResult is one workload's row of a result set.
type workloadResult struct {
	Name      string            `json:"name"`
	Procs     int               `json:"gomaxprocs"` // of this workload's children
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]stat   `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat   `json:"per_layer,omitempty"`
	Digests   map[string]string `json:"digests"` // engineKey -> sha256
	// ProfileSamples is how many CPU-profile samples the layer shares of
	// a traced run rest on, pooled over its traced passes.
	ProfileSamples int64 `json:"profile_samples,omitempty"`
	topOther       []funcShare
}

// runWorkload measures one workload: cfg.Children fresh processes, each
// warm-up then one measured pass, run one after another (a closed loop
// with one client). Every pass is checked; a pass that fails any check
// counts as failed and contributes no timing.
func runWorkload(wl workload, cfg runConfig, rec *spanRecorder, seen map[string]sighting) workloadResult {
	wr := workloadResult{Name: wl.Name, Procs: procsOnHost(childProcs), Digests: map[string]string{}}
	endWl := rec.begin("workload " + wl.Name)
	defer endWl()
	fail := func(what string, err error) {
		wr.Failed++
		msg := fmt.Sprintf("%s %s: %v", wl.Name, what, err)
		wr.Failures = append(wr.Failures, msg)
		fmt.Fprintln(cfg.Log, "FAILED", msg)
	}
	// The reference child, unless the manifest or an earlier workload of
	// this run already holds what it would render.
	ref := workload{Name: wl.Name + " reference"}
	for _, p := range wl.Reference {
		if _, ok := seen[passKey(p)]; !ok && cfg.Golden == nil {
			ref.Warm = append(ref.Warm, p)
		}
	}
	if len(ref.Warm) > 0 {
		wr.Attempted++
		endChild := rec.begin("child " + ref.Name)
		res, err := spawnChild(cfg.Exe, childSpec{Workload: ref, Seed: cfg.Seed}, cfg.Log)
		endChild()
		if err == nil {
			err = checkChild(ref, res, cfg, seen)
		}
		if err != nil {
			fail("reference pass", err)
		}
	}
	// A traced run leads with one untraced pass: the reference its
	// trace_overhead_pct is taken against.
	profiled := make([]bool, cfg.Children)
	if cfg.Traced {
		for i := range profiled {
			profiled[i] = true
		}
		profiled = append([]bool{false}, profiled...)
	}
	var plain, traced []childResult
	for i, prof := range profiled {
		wr.Attempted++
		spec := childSpec{Workload: wl, Seed: cfg.Seed, PassID: i + 1, Profile: prof}
		endChild := rec.begin(fmt.Sprintf("child %s #%d", wl.Name, i+1))
		res, err := spawnChild(cfg.Exe, spec, cfg.Log)
		if err == nil {
			rec.absorb(res.Spans)
		}
		endChild()
		if err == nil {
			err = checkChild(wl, res, cfg, seen)
		}
		if err != nil {
			fail(fmt.Sprintf("pass %d", i+1), err)
			continue
		}
		for _, p := range res.passes() {
			wr.Digests[engineKey(p.pass)] = p.SHA256 // identical across children, or checkChild failed
		}
		if prof {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		fmt.Fprintf(cfg.Log, "  %s pass %d/%d: wall %.3fs cpu %.3fs rss %.1fMB setup %.3fs events %d\n",
			wl.Name, i+1, len(profiled), res.WallS, res.CPUS, res.PeakRSSMB, res.SetupS, res.Events)
	}
	// End-to-end numbers only ever come from untraced passes.
	if len(plain) > 0 {
		wr.EndToEnd = endToEndMetrics(plain)
	}
	if len(plain) > 0 && len(traced) > 0 {
		wr.PerLayer = workloadLayerMetrics(traced)
		ref := summarise("s", column(plain, func(c childResult) float64 { return c.WallS })).Median
		wr.PerLayer["trace_overhead_pct"] = summarise("%", column(traced, func(c childResult) float64 {
			return (c.WallS - ref) / ref * 100
		}))
		wr.topOther = traced[0].TopOther
		for _, c := range traced {
			wr.ProfileSamples += c.ProfileSamples
		}
	}
	return wr
}

// sighting is the first rendering of a pass's output in a run: the bytes
// every later pass of that experiment, scale and seed must repeat.
type sighting struct {
	SHA256 string
	Shards int
}

// checkChild is the correctness check of one child's passes. It fails
// the child when
//   - it did not run every pass it was asked to;
//   - a pass reported Result.Failed;
//   - a manifest applies (cfg.Golden, at goldenSeed) and the bytes are
//     not the committed ones;
//   - a pass rendered other bytes than an earlier pass of the same
//     experiment, scale and seed — another child, the warm-up, the
//     reference child, another workload of this run — on either engine:
//     a sharded pass must equal its serial twin.
func checkChild(wl workload, res childResult, cfg runConfig, seen map[string]sighting) error {
	if len(res.Warm) != len(wl.Warm) || len(res.Measured) != len(wl.Passes) {
		return fmt.Errorf("ran %d warm + %d measured experiments, want %d + %d",
			len(res.Warm), len(res.Measured), len(wl.Warm), len(wl.Passes))
	}
	for _, p := range res.passes() {
		key := passKey(p.pass)
		if p.Failed {
			return fmt.Errorf("%s reported Result.Failed", key)
		}
		if cfg.Golden != nil {
			want, ok := cfg.Golden[key]
			if !ok {
				return fmt.Errorf("%s has no digest in golden.json (run -update-golden)", key)
			}
			if p.SHA256 != want {
				return fmt.Errorf("%s (shards=%d) drifted from golden.json: got %.12s… want %.12s…", key, p.Shards, p.SHA256, want)
			}
		}
		first, ok := seen[key]
		if !ok {
			seen[key] = sighting{p.SHA256, p.Shards}
		} else if first.SHA256 != p.SHA256 {
			return fmt.Errorf("%s (shards=%d) at seed %d differs from an earlier run of it (shards=%d): got %.12s… earlier %.12s…",
				key, p.Shards, cfg.Seed, first.Shards, p.SHA256, first.SHA256)
		}
	}
	return nil
}

// engineKey names a pass's output on one engine, in a result set's digests.
func engineKey(p pass) string { return passKey(p) + "/shards=" + strconv.Itoa(p.Shards) }

// passKey names a pass's output in golden.json: experiment and scale.
// The engine is not part of the name, because it must not change the
// bytes.
func passKey(p pass) string {
	return p.Exp + "@" + strconv.FormatFloat(p.Scale, 'g', -1, 64)
}

func column(cs []childResult, f func(childResult) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func endToEndMetrics(cs []childResult) map[string]stat {
	return map[string]stat{
		"wall_s":      summarise("s", column(cs, func(c childResult) float64 { return c.WallS })),
		"cpu_s":       summarise("s", column(cs, func(c childResult) float64 { return c.CPUS })),
		"peak_rss_mb": summarise("MB", column(cs, func(c childResult) float64 { return c.PeakRSSMB })),
		"setup_s":     summarise("s", column(cs, func(c childResult) float64 { return c.SetupS })),
	}
}

// workloadLayerMetrics turns traced children into the per-workload (W)
// layer metrics: profile attribution, engine counters, runtime counters.
func workloadLayerMetrics(cs []childResult) map[string]stat {
	out := map[string]stat{}
	put := func(name, unit string, f func(childResult) float64) {
		out[name] = summarise(unit, column(cs, f))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Attribution pools the samples of all traced passes: at the 250 Hz
	// a CONFIG_HZ=250 kernel delivers, one 2-4 s pass alone has too few.
	// The stat's Median is the pooled estimate; Min and Max are the
	// single-pass estimates.
	layerTotal := func(c childResult) (total float64) {
		for _, ns := range c.LayerNs {
			total += float64(ns)
		}
		return total
	}
	var poolNs, poolCPU, poolEvents float64
	for _, c := range cs {
		poolNs += layerTotal(c)
		poolCPU += c.CPUS
		poolEvents += float64(c.Events)
	}
	for _, l := range layers {
		l := l
		share := func(c childResult) float64 { return ratio(float64(c.LayerNs[l]), layerTotal(c)) }
		var layerNs float64
		for _, c := range cs {
			layerNs += float64(c.LayerNs[l])
		}
		st := summarise("share", column(cs, share))
		st.Median = ratio(layerNs, poolNs)
		out[l+".cpu_share"] = st
		// ns/event = share x cpu_s / events: profile time is sampled, so
		// the passes' own getrusage CPU is what gets split.
		st = summarise("ns", column(cs, func(c childResult) float64 {
			return ratio(share(c)*c.CPUS*1e9, float64(c.Events))
		}))
		st.Median = ratio(ratio(layerNs, poolNs)*poolCPU*1e9, poolEvents)
		out[l+".ns_per_event"] = st
	}
	put("sim.events", "count", func(c childResult) float64 { return float64(c.Events) })
	put("sim.events_per_s", "1/s", func(c childResult) float64 { return ratio(float64(c.Events), c.WallS) })
	put("sim.inlined_share", "share", func(c childResult) float64 { return ratio(float64(c.Inlined), float64(c.Events)) })
	put("sim.peak_queue_residency", "count", func(c childResult) float64 { return float64(c.PeakResidency) })
	put("sim.shard_rounds", "count", func(c childResult) float64 { return float64(c.ShardRounds) })
	put("sim.events_per_shard_round", "count", func(c childResult) float64 {
		return ratio(float64(c.Events), float64(c.ShardRounds))
	})
	put("runtime.mallocs_per_event", "count", func(c childResult) float64 { return ratio(float64(c.Mallocs), float64(c.Events)) })
	put("runtime.alloc_bytes_per_event", "B", func(c childResult) float64 { return ratio(float64(c.AllocBytes), float64(c.Events)) })
	put("runtime.gc_cycles", "count", func(c childResult) float64 { return float64(c.GCCycles) })
	put("runtime.gc_pause_ms", "ms", func(c childResult) float64 { return c.GCPauseMs })
	put("runtime.heap_after_mb", "MB", func(c childResult) float64 { return c.HeapAfterMB })
	put("runtime.goroutines_leaked", "count", func(c childResult) float64 { return float64(c.GoroutinesLeaked) })
	return out
}

// profilePasses is how many traced passes a traced run of wl makes: about
// 8 s of profiled CPU, which at 250 Hz is the 2000 samples attribution
// to eleven buckets wants.
func profilePasses(wl workload) int {
	n := int(math.Ceil(8 / wl.NominalWallS))
	if n < 2 {
		return 2
	}
	if n > 4 {
		return 4
	}
	return n
}

// childrenFor sizes a run from the driver's --seconds: about that many
// seconds of measured passes, in three to eight children — the median
// needs three.
func childrenFor(wl workload, seconds float64) int {
	n := int(math.Round(seconds / wl.NominalWallS))
	if n < 3 {
		return 3
	}
	if n > 8 {
		return 8
	}
	return n
}

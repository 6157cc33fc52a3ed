// Command casperbench regenerates the tables and figures of the Casper
// paper (Si et al., IPDPS 2015) from the simulated reproduction.
//
// Usage:
//
//	casperbench -list
//	casperbench -run fig4a [-csv] [-scale 0.5] [-seed 7] [-parallel 8]
//	casperbench -run fig5a -shards 4
//	casperbench -all [-sched heap]
//	casperbench -bench fig5a -shards 4 -benchcount 5 -benchout BENCH_fig5a.json
//
// -bench runs one experiment twice — serially and with -parallel
// workers — and writes a JSON perf baseline (wall-clock, events/sec,
// allocs/event, parallel speedup, bit-identity of the two outputs).
// With -benchcount N the serial and parallel measurements repeat N
// times; the baseline's headline blocks hold the median round (by
// events/sec) and the per-round numbers are recorded alongside. With
// -shards > 0 it additionally sweeps the sharded engine at shards
// 1/2/4/8 and records a "sharded" block, failing if any run's output
// differs from the serial engine's. -cpuprofile and -memprofile write
// pprof profiles of the run.
//
// -sched selects the event scheduler for every world: "ladder" (the
// default) or "heap" (the differential-testing oracle the ladder
// queue replaced). Output is byte-identical either way; the flag
// exists to keep that claim one diff away.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/sim"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		run        = flag.String("run", "", "experiment id to run (e.g. fig4a)")
		all        = flag.Bool("all", false, "run every experiment")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		scale      = flag.Float64("scale", 1.0, "sweep scale factor (smaller = faster)")
		seed       = flag.Int64("seed", 42, "simulation seed")
		quick      = flag.Bool("quick", false, "CI smoke mode: shorthand for -scale 0.12")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (1 = serial)")
		shards     = flag.Int("shards", 0, "sharded simulation: per-node engines driven by up to N worker goroutines (0 = serial engine); output is identical at any value")
		chaosSeed  = flag.Int64("chaosseed", 0, "faultchaos: replay this single chaos seed verbosely (0 = full sweep; implies -run faultchaos)")
		schedName  = flag.String("sched", "ladder", "event scheduler: ladder (default) or heap (the differential-testing oracle)")
		benchID    = flag.String("bench", "", "experiment id to benchmark serial vs -parallel")
		benchCount = flag.Int("benchcount", 1, "with -bench: repeat the serial and parallel measurements N times and report the median round")
		benchOut   = flag.String("benchout", "", "write the -bench JSON baseline to this file (default stdout)")
		allocGate  = flag.String("allocgate", "", "with -bench: fail if allocs/event exceeds this committed baseline JSON by more than 0.05")
		shardGate  = flag.String("shardgate", "", "with -bench -shards: fail if the sharded-4/serial events/sec ratio drops below 1.0 or regresses versus this committed baseline JSON (15% slack)")
		schedGate  = flag.String("schedgate", "", "with -bench: fail if serial events/sec drops more than 15% below this committed baseline JSON (same-host comparison)")
		maxProcs   = flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS for the run (0 = inherit; the -bench sharded sweep otherwise runs each point at GOMAXPROCS = its shard count)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file")
	)
	flag.Parse()
	if *quick {
		*scale = 0.12
	}
	sched, err := sim.ParseScheduler(*schedName)
	if err != nil {
		fatalf("casperbench: %v", err)
	}
	bench.SetScheduler(sched)
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}
	if lim := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); *shards > lim {
		// Not an error: the runs are still bit-identical (the engine
		// clamps its workers to what the hardware can schedule and runs
		// the rest inline), but their wall-clock must never be mistaken
		// for an N-way parallel speedup.
		fmt.Fprintf(os.Stderr,
			"casperbench: warning: -shards %d exceeds the %d schedulable CPUs (GOMAXPROCS %d, NumCPU %d) — shard workers beyond that run inline, so events/sec is an overhead measurement, not a speedup\n",
			*shards, lim, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if *chaosSeed > 0 {
		// -chaosseed only means something to faultchaos: a bare
		// invocation implies the replay run, anything else is a mistake
		// the user should hear about rather than a silently ignored flag.
		switch {
		case *run == "" && *benchID == "" && !*all && !*list:
			*run = "faultchaos"
		case *run != "" && *run != "faultchaos":
			fatalf("casperbench: -chaosseed applies only to faultchaos, not -run %s", *run)
		case *benchID != "" && *benchID != "faultchaos":
			fatalf("casperbench: -chaosseed applies only to faultchaos, not -bench %s", *benchID)
		}
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, Parallel: *parallel, ChaosSeed: *chaosSeed, Shards: *shards}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("casperbench: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("casperbench: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("casperbench: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatalf("casperbench: %v", err)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-8s %-12s %s\n", e.ID, e.Figure, e.Title)
		}
	case *benchID != "":
		e, ok := bench.Get(*benchID)
		if !ok {
			fatalf("casperbench: unknown experiment %q (try -list)", *benchID)
		}
		if err := runBench(e, opts, benchConfig{
			out:       *benchOut,
			allocGate: *allocGate,
			shardGate: *shardGate,
			schedGate: *schedGate,
			pinned:    *maxProcs,
			count:     *benchCount,
			sched:     sched,
		}); err != nil {
			fatalf("casperbench: %v", err)
		}
	case *all:
		failed := false
		for _, e := range bench.All() {
			failed = emit(e, opts, *csv) || failed
		}
		if failed {
			os.Exit(1)
		}
	case *run != "":
		e, ok := bench.Get(*run)
		if !ok {
			fatalf("casperbench: unknown experiment %q (try -list)", *run)
		}
		if emit(e, opts, *csv) {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// emit renders one experiment. Recovery summaries go to stderr so the
// stdout tables stay byte-comparable across releases; the return value
// reports an invariant violation (the process then exits nonzero).
func emit(e bench.Experiment, o bench.Options, csv bool) bool {
	res := e.Run(o)
	if csv {
		fmt.Print(res.CSV())
	} else {
		fmt.Print(res.Table())
	}
	fmt.Println()
	for _, line := range res.Recovery {
		fmt.Fprintln(os.Stderr, line)
	}
	if res.Failed {
		fmt.Fprintf(os.Stderr, "casperbench: %s: invariant violations (see FAIL notes above)\n", res.ID)
	}
	return res.Failed
}

// baseline is the BENCH_*.json schema: one serial and one parallel
// measurement of the same experiment plus derived comparisons, with
// enough environment detail to interpret the numbers later.
type baseline struct {
	Experiment string            `json:"experiment"`
	Scale      float64           `json:"scale"`
	Seed       int64             `json:"seed"`
	Sched      string            `json:"sched"` // event scheduler (-sched): "ladder" or "heap"
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"` // physical honesty: GOMAXPROCS above this is time-slicing
	Serial     bench.Measurement `json:"serial"`
	Parallel   bench.Measurement `json:"parallel"`

	// With -benchcount > 1, Serial and Parallel hold the median round
	// (by events/sec; lower middle for even counts) and these arrays
	// record every round, fastest variance check included. The sharded
	// sweep below stays single-round: its gate (checkShardGate) is a
	// same-process ratio with its own slack, and an 8-point sweep
	// repeated N times would dominate the bench's runtime for numbers
	// nothing gates on.
	BenchCount     int                 `json:"bench_count,omitempty"`
	SerialRounds   []bench.Measurement `json:"serial_rounds,omitempty"`
	ParallelRounds []bench.Measurement `json:"parallel_rounds,omitempty"`

	// Sharded sweeps the same experiment over shard counts (-shards;
	// Parallel pinned to 1 so sweep workers don't pollute the timing),
	// each point at GOMAXPROCS equal to its shard count unless
	// -gomaxprocs pins it. Present only when the -bench invocation
	// passed -shards > 0. Each entry records the gomaxprocs it actually
	// ran under — a point with gomaxprocs < shards (or num_cpu <
	// shards) is time-sliced and its events/sec is an overhead
	// measurement, not a speedup.
	Sharded []shardPoint `json:"sharded,omitempty"`

	// SpeedupExpected is false when the run cannot exhibit a parallel
	// speedup — a single worker requested, or a single schedulable CPU —
	// in which case ParallelSpeedup is omitted rather than reported as a
	// misleading sub-1.0 ratio of two serial runs.
	SpeedupExpected bool    `json:"speedup_expected"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	OutputIdentical bool    `json:"output_identical"`
}

// shardPoint is one entry of the baseline's sharded sweep.
type shardPoint struct {
	Shards          int     `json:"shards"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	WallSeconds     float64 `json:"wall_seconds"`
	Events          int64   `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	Rounds          int64   `json:"rounds"` // window barriers: the synchronization cost
	OutputIdentical bool    `json:"output_identical"`
}

// allocGateSlack is how far allocs/event may drift above the committed
// baseline before the gate fails. Allocation counts are deterministic
// modulo GC-triggered map/slice growth timing, so the tolerance is
// small but nonzero.
const allocGateSlack = 0.05

// loadGateBaseline reads the committed baseline a gate compares
// against and refuses one measured at another scale: allocs/event and
// events/sec both move with the sweep size (world setup amortises over
// fewer events at a small scale), so such a comparison says nothing
// about the code. An empty path (gate not requested) yields nil.
func loadGateBaseline(gate, path string, scale float64) (*baseline, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", gate, err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: parsing %s: %w", gate, path, err)
	}
	if base.Scale != scale {
		return nil, fmt.Errorf("%s: scale mismatch: this run is at -scale %g but %s was measured at scale %g; rerun with -scale %g",
			gate, scale, path, base.Scale, base.Scale)
	}
	return &base, nil
}

// checkAllocGate compares the serial measurement against a committed
// baseline and errors when allocs/event regressed by more than
// allocGateSlack — the CI regression gate for the zero-alloc event loop.
func checkAllocGate(base *baseline, path string, m bench.Measurement) error {
	limit := base.Serial.AllocsPerEvent + allocGateSlack
	if m.AllocsPerEvent > limit {
		return fmt.Errorf("allocgate: allocs/event %.4f exceeds baseline %.4f + %.2f slack (%s)",
			m.AllocsPerEvent, base.Serial.AllocsPerEvent, allocGateSlack, path)
	}
	fmt.Fprintf(os.Stderr, "allocgate: ok — %.4f allocs/event vs baseline %.4f (+%.2f slack)\n",
		m.AllocsPerEvent, base.Serial.AllocsPerEvent, allocGateSlack)
	return nil
}

// shardGateSlack is the fractional wall-clock tolerance of the sharded
// speedup gate. Unlike the allocgate, both sides of the ratio are
// wall-clock measurements on a shared CI runner, so the slack must
// absorb scheduler noise on two runs, not allocator jitter on one;
// 15% is comfortably above observed run-to-run variance (~5%) while
// still catching any real regression of the barrier or drain paths,
// which cost multiples of that when they misbehave.
const shardGateSlack = 0.15

// checkShardGate is the multi-core speedup gate: the sharded-4 /
// serial events-per-second ratio of the current run must (a) not drop
// below 1.0 — sharded execution must beat the serial engine — and (b)
// not regress versus the same ratio in the committed baseline JSON,
// both within shardGateSlack. Gating on the ratio rather than absolute
// events/sec keeps the gate portable across machines: both numbers
// come from the same process on the same host seconds apart.
func checkShardGate(base *baseline, path string, b *baseline) error {
	ratio, point, err := shardRatio(b)
	if err != nil {
		return fmt.Errorf("shardgate: current run: %w", err)
	}
	baseRatio, _, err := shardRatio(base)
	if err != nil {
		return fmt.Errorf("shardgate: %s: %w", path, err)
	}
	if floor := 1.0 * (1 - shardGateSlack); ratio < floor {
		return fmt.Errorf(
			"shardgate: sharded-4 (gomaxprocs %d) runs at %.2fx the serial engine, below the %.2f floor (serial %.0f ev/s, sharded %.0f ev/s)",
			point.GOMAXPROCS, ratio, floor, b.Serial.EventsPerSec, point.EventsPerSec)
	}
	if floor := baseRatio * (1 - shardGateSlack); ratio < floor {
		return fmt.Errorf(
			"shardgate: sharded-4/serial ratio %.2f regressed below committed %.2f - %d%% slack (%s)",
			ratio, baseRatio, int(shardGateSlack*100), path)
	}
	fmt.Fprintf(os.Stderr, "shardgate: ok — sharded-4/serial ratio %.2f (committed %.2f, slack %d%%)\n",
		ratio, baseRatio, int(shardGateSlack*100))
	return nil
}

// schedGateSlack is the fractional events/sec tolerance of the
// scheduler throughput gate. Both sides are absolute wall-clock
// measurements taken in different processes (the committed baseline
// was regenerated on an earlier run of the same host class), so this
// is the noisiest of the three gates and carries the same 15% slack
// as the shardgate; use -benchcount so the gated number is a median,
// not a single roll of the scheduler dice. The gate's job is to catch
// a scheduler regression that erases the ladder queue's win over the
// heap (~8-13% end-to-end), which would show up as a >15% drop against
// a ladder baseline only in combination with other regressions — the
// finer-grained guard is BenchmarkScheduler in internal/sim.
const schedGateSlack = 0.15

// checkSchedGate compares the serial events/sec of the current run
// against the committed baseline and errors on a drop beyond
// schedGateSlack — the CI regression gate for scheduler throughput.
func checkSchedGate(base *baseline, path string, m bench.Measurement) error {
	if base.Serial.EventsPerSec <= 0 {
		return fmt.Errorf("schedgate: %s has no serial events/sec", path)
	}
	floor := base.Serial.EventsPerSec * (1 - schedGateSlack)
	if m.EventsPerSec < floor {
		return fmt.Errorf("schedgate: serial %.0f ev/s fell below committed %.0f - %d%% slack = %.0f (%s)",
			m.EventsPerSec, base.Serial.EventsPerSec, int(schedGateSlack*100), floor, path)
	}
	fmt.Fprintf(os.Stderr, "schedgate: ok — serial %.0f ev/s vs committed %.0f (slack %d%%)\n",
		m.EventsPerSec, base.Serial.EventsPerSec, int(schedGateSlack*100))
	return nil
}

// shardRatio extracts a baseline's sharded-4 / serial events-per-second
// ratio.
func shardRatio(b *baseline) (float64, shardPoint, error) {
	for _, p := range b.Sharded {
		if p.Shards == 4 {
			if b.Serial.EventsPerSec <= 0 || p.EventsPerSec <= 0 {
				return 0, p, fmt.Errorf("sharded-4 or serial events/sec missing")
			}
			return p.EventsPerSec / b.Serial.EventsPerSec, p, nil
		}
	}
	return 0, shardPoint{}, fmt.Errorf("no sharded-4 sweep point (run with -shards 4)")
}

// benchConfig carries runBench's knobs.
type benchConfig struct {
	out       string
	allocGate string
	shardGate string
	schedGate string
	pinned    int // -gomaxprocs, 0 = per-point
	count     int // -benchcount
	sched     sim.SchedulerKind
}

func runBench(e bench.Experiment, o bench.Options, c benchConfig) error {
	// Load the gates' baselines first: a gate that cannot compare (missing
	// file, other scale) should say so before minutes of measurement.
	allocBase, err := loadGateBaseline("allocgate", c.allocGate, o.Scale)
	if err != nil {
		return err
	}
	shardBase, err := loadGateBaseline("shardgate", c.shardGate, o.Scale)
	if err != nil {
		return err
	}
	schedBase, err := loadGateBaseline("schedgate", c.schedGate, o.Scale)
	if err != nil {
		return err
	}
	// Both named measurements run on the serial engine: the allocgate's
	// 0.05 slack is only meaningful against a single-goroutine run (see
	// bench.Measurement), and "parallel" measures sweep workers, not
	// shard workers. Shard workers get their own sweep below.
	serial := o
	serial.Parallel = 1
	serial.Shards = 0
	par := o
	par.Shards = 0
	serialRounds, ms := bench.MeasureN(e, serial, c.count)
	parRounds, mp := bench.MeasureN(e, par, c.count)
	b := baseline{
		Experiment:      e.ID,
		Scale:           o.Scale,
		Seed:            o.Seed,
		Sched:           c.sched.String(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Serial:          ms,
		Parallel:        mp,
		SpeedupExpected: o.Parallel > 1 && runtime.GOMAXPROCS(0) > 1,
		OutputIdentical: ms.CSV == mp.CSV,
	}
	if c.count > 1 {
		b.BenchCount = c.count
		b.SerialRounds = serialRounds
		b.ParallelRounds = parRounds
	}
	if b.SpeedupExpected && mp.WallSeconds > 0 {
		b.ParallelSpeedup = ms.WallSeconds / mp.WallSeconds
	}
	if !b.OutputIdentical {
		return fmt.Errorf("%s: parallel output differs from serial", e.ID)
	}
	if o.Shards > 0 {
		ambient := runtime.GOMAXPROCS(0)
		for _, s := range []int{1, 2, 4, 8} {
			// Each sweep point runs at GOMAXPROCS = its shard count —
			// the configuration whose events/sec is a real speedup
			// claim — unless -gomaxprocs pinned the whole run. Capped
			// at the physical core count: past it, a higher GOMAXPROCS
			// only adds scheduler noise (idle Ps woken on every
			// channel op) without any parallelism, skewing the point
			// against configurations the hardware can actually run.
			// The entry records the gomaxprocs it really used.
			if c.pinned <= 0 {
				runtime.GOMAXPROCS(min(s, runtime.NumCPU()))
			}
			so := serial
			so.Shards = s
			m := bench.Measure(e, so)
			if c.pinned <= 0 {
				runtime.GOMAXPROCS(ambient)
			}
			p := shardPoint{
				Shards:          s,
				GOMAXPROCS:      m.GOMAXPROCS,
				WallSeconds:     m.WallSeconds,
				Events:          m.Events,
				EventsPerSec:    m.EventsPerSec,
				Rounds:          m.ShardRounds,
				OutputIdentical: m.CSV == ms.CSV,
			}
			b.Sharded = append(b.Sharded, p)
			if !p.OutputIdentical {
				return fmt.Errorf("%s: -shards %d output differs from serial", e.ID, s)
			}
		}
	}
	if allocBase != nil {
		if err := checkAllocGate(allocBase, c.allocGate, ms); err != nil {
			return err
		}
	}
	if shardBase != nil {
		if err := checkShardGate(shardBase, c.shardGate, &b); err != nil {
			return err
		}
	}
	if schedBase != nil {
		if err := checkSchedGate(schedBase, c.schedGate, ms); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if c.out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(c.out, enc, 0o644)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/mpi"
)

// childEnv carries the JSON childSpec to a re-executed copy of this
// binary; its presence is what makes a process a child. The result goes
// back on file descriptor 3 so experiment chatter on stdout/stderr
// cannot corrupt it.
const childEnv = "CASPERPERF_CHILD"

// profileHz is the CPU-profile sampling rate asked for on a traced pass:
// ten times runtime/pprof's 100 Hz. The kernel's timer tick caps what is
// delivered (250 Hz at CONFIG_HZ=250, the reference host), so a traced
// run also pools several passes; see profilePasses.
const profileHz = 1000

// childSpec is everything a child needs: the passes to run and how.
type childSpec struct {
	Workload      workload `json:"workload"`
	Seed          int64    `json:"seed"`
	PassID        int      `json:"pass_id"`
	Profile       bool     `json:"profile"`         // traced run: CPU profile + spans around the measured pass
	SpawnUnixNano int64    `json:"spawn_unix_nano"` // parent clock just before exec: setup_s starts here
}

// passResult is one experiment run inside a child.
type passResult struct {
	pass
	SHA256 string `json:"sha256"` // of Result.CSV()
	Failed bool   `json:"failed"` // Result.Failed
	Events int64  `json:"events"`
}

// childResult is what one child measured. Everything but Warm describes
// the single measured pass.
type childResult struct {
	PassID    int     `json:"pass_id"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Warm     []passResult `json:"warm"`
	Measured []passResult `json:"measured"`

	Events        int64 `json:"events"`
	Inlined       int64 `json:"inlined"`
	ShardRounds   int64 `json:"shard_rounds"`
	PeakResidency int   `json:"peak_residency"`

	Mallocs          uint64  `json:"mallocs"`
	AllocBytes       uint64  `json:"alloc_bytes"`
	GCCycles         uint32  `json:"gc_cycles"`
	GCPauseMs        float64 `json:"gc_pause_ms"`
	HeapAfterMB      float64 `json:"heap_after_mb"`
	GoroutinesLeaked int     `json:"goroutines_leaked"`

	// Traced children only.
	LayerNs        map[string]int64 `json:"layer_ns,omitempty"` // leaf-frame CPU ns per layer
	ProfileSamples int64            `json:"profile_samples,omitempty"`
	TopOther       []funcShare      `json:"top_other,omitempty"` // what to extend the families with
	Spans          []span           `json:"spans,omitempty"`
}

// passes lists every experiment the child ran, warm-up first.
func (r childResult) passes() []passResult {
	return append(append([]passResult(nil), r.Warm...), r.Measured...)
}

// runPass runs one experiment the way `casperbench -run` does.
func runPass(p pass, seed int64, rec *spanRecorder) passResult {
	e, ok := bench.Get(p.Exp)
	if !ok {
		panic(fmt.Sprintf("benchmark: experiment %q is not registered", p.Exp))
	}
	ev0 := mpi.TotalEventsExecuted()
	done := rec.begin("bench.Experiment.Run " + passKey(p))
	res := e.Run(bench.Options{Scale: p.Scale, Seed: seed, Parallel: 1, Shards: p.Shards})
	done()
	sum := sha256.Sum256([]byte(res.CSV()))
	return passResult{
		pass:   p,
		SHA256: hex.EncodeToString(sum[:]),
		Failed: res.Failed,
		Events: mpi.TotalEventsExecuted() - ev0,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return ru
}

// cpuSeconds is the process's user+sys CPU so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// childMain is the body of a child process: warm up, then measure one
// pass of the workload. A panic anywhere (an unknown experiment, a bug in
// the simulator) kills the child; the parent counts that as a failed
// pass.
func childMain(specJSON string) {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: bad spec: %v\n", err)
		os.Exit(2)
	}
	out := os.NewFile(3, "result")
	if out == nil {
		fmt.Fprintln(os.Stderr, "benchmark child: no result descriptor")
		os.Exit(2)
	}
	var rec *spanRecorder
	if spec.Profile {
		rec = newSpanRecorder(spec.PassID)
	}
	res := childResult{PassID: spec.PassID}

	warmDone := rec.begin("warm-up " + spec.Workload.Name)
	for _, p := range spec.Workload.Warm {
		res.Warm = append(res.Warm, runPass(p, spec.Seed, rec))
	}
	warmDone()
	// The measured pass starts from a collected heap, so what it
	// allocates is its own.
	runtime.GC()

	var prof bytes.Buffer
	if spec.Profile {
		// StartCPUProfile hard-codes 100 Hz; setting the rate first makes
		// its own SetCPUProfileRate call a (logged) no-op.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(fmt.Sprintf("benchmark: start CPU profile: %v", err))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines0 := runtime.NumGoroutine()
	ev0, in0, ro0 := mpi.TotalEventsExecuted(), mpi.TotalInlinedAdvances(), mpi.TotalShardRounds()
	mpi.TakePeakQueueResidency()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res.SetupS = float64(t0.UnixNano()-spec.SpawnUnixNano) / 1e9

	passDone := rec.begin("measured pass " + spec.Workload.Name)
	for _, p := range spec.Workload.Passes {
		res.Measured = append(res.Measured, runPass(p, spec.Seed, rec))
	}
	passDone()

	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	if spec.Profile {
		pprof.StopCPUProfile()
	}
	res.Events = mpi.TotalEventsExecuted() - ev0
	res.Inlined = mpi.TotalInlinedAdvances() - in0
	res.ShardRounds = mpi.TotalShardRounds() - ro0
	res.PeakResidency = mpi.TakePeakQueueResidency()
	res.GoroutinesLeaked = runtime.NumGoroutine() - goroutines0
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	// What the pass still holds once it is over: live heap after a
	// collection, not garbage awaiting one.
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.HeapAfterMB = float64(after.HeapAlloc) / (1 << 20)
	res.PeakRSSMB = peakRSSMB()

	if spec.Profile {
		byFunc, samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			panic(fmt.Sprintf("benchmark: decode CPU profile: %v", err))
		}
		res.LayerNs = bucketByLayer(byFunc)
		res.TopOther = topOfLayer(byFunc, layerOther, 12)
		res.ProfileSamples = samples
		res.Spans = rec.spans()
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: write result: %v\n", err)
		os.Exit(2)
	}
	if err := out.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: close result: %v\n", err)
		os.Exit(2)
	}
}

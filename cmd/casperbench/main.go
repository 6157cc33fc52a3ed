// Command casperbench regenerates the tables and figures of the Casper
// paper (Si et al., IPDPS 2015) from the simulated reproduction.
//
// Usage:
//
//	casperbench -list
//	casperbench -run fig4a [-csv] [-scale 0.5] [-seed 7] [-parallel 8]
//	casperbench -all
//
// -cpuprofile and -memprofile write pprof profiles of the run. How fast
// the simulator itself runs is measured by `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
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
		chaosSeed  = flag.Int64("chaosseed", 0, "faultchaos: replay this single chaos seed verbosely (0 = full sweep; implies -run faultchaos)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file")
	)
	flag.Parse()
	// A value the sweep would quietly reinterpret is refused: a Scale of
	// 0 means the full sweep to bench.Options, a negative one the
	// smallest, and -quick would override an explicit -scale.
	scaleSet := false
	flag.Visit(func(f *flag.Flag) { scaleSet = scaleSet || f.Name == "scale" })
	switch {
	case *quick && scaleSet:
		usagef("casperbench: -quick is -scale 0.12; give one of them, not both")
	case !(*scale > 0) || math.IsInf(*scale, 1):
		usagef("casperbench: -scale %v: want a finite number above 0", *scale)
	case *chaosSeed < 0:
		usagef("casperbench: -chaosseed %d: want a seed above 0, or 0 for the full sweep", *chaosSeed)
	}
	if *quick {
		*scale = 0.12
	}
	if *chaosSeed > 0 {
		// -chaosseed only means something to faultchaos: a bare
		// invocation implies the replay run, anything else is a mistake
		// the user should hear about rather than a silently ignored flag.
		switch {
		case *run == "" && !*all && !*list:
			*run = "faultchaos"
		case *run != "" && *run != "faultchaos":
			usagef("casperbench: -chaosseed applies only to faultchaos, not -run %s", *run)
		}
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, Parallel: *parallel, ChaosSeed: *chaosSeed}

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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// usagef reports a flag value the command refuses and exits 2, the
// status of a flag the flag package cannot parse.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

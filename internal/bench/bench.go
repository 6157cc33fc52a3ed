// Package bench contains the experiment harness: one named experiment
// per table and figure of the paper's evaluation (Section IV), each
// regenerating the corresponding rows/series from the simulated
// platforms. The cmd/casperbench CLI and the repository-root
// testing.B benchmarks both drive this registry.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// Options tunes an experiment run.
type Options struct {
	// Scale shrinks sweep endpoints for quick runs: 1.0 reproduces the
	// experiment at the default (paper-shaped, simulation-sized)
	// sweep; smaller values shrink it further. Zero means 1.0.
	Scale float64
	// Seed for the simulation RNG.
	Seed int64
	// Parallel is the number of worker goroutines used to run
	// independent sweep points concurrently (see parallel.go). Each
	// point is a self-contained deterministic simulation, so results
	// are bit-identical at any setting. <= 1 runs serially.
	Parallel int
	// ChaosSeed, when positive, restricts the faultchaos experiment to
	// that single seed and reports its schedule and outcome verbosely —
	// the one-command replay for a failing seed. Zero runs the full
	// sweep. Ignored by every other experiment.
	ChaosSeed int64
	// Shards > 0 requests sharded simulation execution (one engine per
	// node, up to Shards worker goroutines; see mpi.Config.Shards) for
	// the experiments that thread it through — currently the fig5
	// scaling family and faultchaos (where fault plans fall back to the
	// serial engine, making the option an honest no-op). Output is
	// identical to the serial engine's (0) at seed 42 and at the seeds
	// benchmark/golden.json lists; it is known to differ at others —
	// ROADMAP B.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// scaleInt shrinks a sweep endpoint by Scale, keeping at least lo.
func (o Options) scaleInt(v, lo int) int {
	s := int(float64(v) * o.Scale)
	if s < lo {
		return lo
	}
	return s
}

// Series is one line of a figure.
type Series struct {
	Name string
	Y    []float64
}

// Result is the regenerated data of one table/figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	Notes  []string
	// Recovery carries one-line recovery summaries for runs where a
	// fault plan actually acted (failovers, successions, reclaimed
	// locks). casperbench prints these to stderr so stdout tables stay
	// byte-identical to fault-free-era output.
	Recovery []string
	// Failed marks an invariant violation (chaos seeds that broke
	// bit-identity, validator cleanliness, or completion). casperbench
	// exits nonzero when set.
	Failed bool
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID     string
	Figure string // which paper artifact it regenerates
	Title  string
	Run    func(o Options) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks up an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	fmt.Fprintf(&b, "%-14s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", r.YLabel)
	for i, x := range r.X {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range r.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %18.3f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range r.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range r.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SeriesByName returns the named series.
func (r *Result) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// --- world-building helpers -------------------------------------------

// edisonNode mirrors the paper's Cray XC30 nodes: 24 cores, 2 NUMA
// domains.
const (
	coresPerNode = 24
	numaPerNode  = 2
)

func machineFor(n, ppn int) cluster.Machine {
	nodes := (n + ppn - 1) / ppn
	return cluster.Machine{Nodes: nodes, CoresPerNode: coresPerNode, NUMAPerNode: numaPerNode}
}

// worldConfig assembles an mpi.Config. It is the single assembly point
// for every world the bench experiments build.
func worldConfig(net *netmodel.Params, n, ppn int, prog mpi.ProgressMode,
	oversub bool, seed int64) mpi.Config {
	return mpi.Config{
		Machine:              machineFor(n, ppn),
		N:                    n,
		PPN:                  ppn,
		Net:                  net,
		Seed:                 seed,
		Progress:             prog,
		ThreadOversubscribed: oversub,
	}
}

// runPlain runs main on a plain MPI world and returns the world, closed:
// its counters stay readable, its window memory goes to the next sweep
// point's world (no experiment reads window bytes after the run; what a
// rank body wants to keep, it copies out).
func runPlain(cfg mpi.Config, main func(env mpi.Env)) *mpi.World {
	w, err := mpi.Run(cfg, func(r *mpi.Rank) { main(r) })
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	w.Close()
	return w
}

// runCasper runs main on the user processes of a Casper world and
// returns it closed, like runPlain.
func runCasper(cfg mpi.Config, ccfg core.Config, main func(env mpi.Env)) *mpi.World {
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		p, ghost := core.Init(r, ccfg)
		if ghost {
			return
		}
		main(p)
		p.Finalize()
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	w.Close()
	return w
}

// pow2Sweep returns powers of two from lo to hi inclusive.
func pow2Sweep(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

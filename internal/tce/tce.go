// Package tce is a miniature tensor-contraction engine: a proxy for the
// NWChem coupled-cluster (CCSD(T)) workloads of the paper's Section
// IV-D. It reproduces the communication/computation structure the paper
// attributes the results to: each process repeatedly fetches remote
// tiles from Global Arrays (one-sided GETs that need target-side
// software progress), performs a long dense contraction (DGEMM), and
// accumulates the result back (one-sided ACC) — with dynamic task
// distribution through an atomic counter, so lack of asynchronous
// progress stalls every fetch behind a computing target.
//
// Two phases are modeled: the CCSD iteration (communication-intensive,
// frequent small contractions) and the (T) triples portion
// (compute-dominant, long gaps between MPI calls), which is where the
// paper shows the largest Casper gains.
package tce

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Phase selects the workload shape.
type Phase int

// Workload phases.
const (
	// PhaseCCSD models one CCSD iteration: many small tensor
	// contractions, communication-intensive.
	PhaseCCSD Phase = iota
	// PhaseTriples models the (T) portion: few, long contractions;
	// each process fetches remote data then computes for a long time.
	PhaseTriples
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == PhaseTriples {
		return "(T)"
	}
	return "CCSD"
}

// Params describes a contraction workload.
type Params struct {
	TilesPerDim   int     // task grid is TilesPerDim x TilesPerDim
	TileSize      int     // tile is TileSize x TileSize float64
	Phase         Phase   // workload shape
	GemmNsPerFlop float64 // simulated DGEMM speed; 0 selects 0.25 ns/flop
}

func (p Params) withDefaults() Params {
	if p.GemmNsPerFlop == 0 {
		p.GemmNsPerFlop = 0.25
	}
	return p
}

// Validate checks the workload parameters.
func (p Params) Validate() error {
	if p.TilesPerDim <= 0 || p.TileSize <= 0 {
		return fmt.Errorf("tce: bad dimensions %dx tiles of %d", p.TilesPerDim, p.TileSize)
	}
	return nil
}

// computePerTask returns the simulated contraction time for one task.
func (p Params) computePerTask() sim.Duration {
	t := float64(p.TileSize)
	flops := 2 * t * t * t // one DGEMM on a tile
	switch p.Phase {
	case PhaseCCSD:
		// A CCSD iteration applies several contractions to each tile
		// pair it fetches (the TCE emits dozens per term).
		flops *= 3
	case PhaseTriples:
		// Triples contractions are O(n^7) over O(n^6) data: far more
		// compute per byte moved.
		flops *= 24
	}
	return sim.Duration(flops * p.GemmNsPerFlop)
}

// Result is one rank's view of a run.
type Result struct {
	Elapsed sim.Duration // barrier-to-barrier iteration time
	Tasks   int          // tasks this rank executed
	GetTime sim.Duration // time spent blocked in GETs (stall indicator)
}

// Run executes one iteration of the phase on the calling rank. It is
// collective over env's world; every rank must call it with identical
// parameters. The returned Result is this rank's.
func Run(env mpi.Env, p Params) Result {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := p.TilesPerDim * p.TileSize
	a := ga.MustCreate(env, "tceA", n, n)
	b := ga.MustCreate(env, "tceB", n, n)
	c := ga.MustCreate(env, "tceC", n, n)
	ga.ShareStaging(a, b, c)
	a.Fill(1)
	b.Fill(2)
	c.Fill(0)
	counter := ga.NewCounter(env)

	env.CommWorld().Barrier()
	start := env.Now()
	res := p.contract(env, a, b, c, counter)
	env.CommWorld().Barrier()
	res.Elapsed = env.Now().Sub(start)

	counter.Destroy()
	c.Destroy()
	b.Destroy()
	a.Destroy()
	return res
}

// contract runs the calling rank's share of the task loop: it draws tasks
// from counter until none is left, and for each gets a tile of a and a
// tile of b, multiplies them and accumulates the product into c. It
// returns the tasks it ran and the time it spent in the gets.
func (p Params) contract(env mpi.Env, a, b, c *ga.Array, counter *ga.Counter) Result {
	var res Result
	numTasks := p.TilesPerDim * p.TilesPerDim
	tile := p.TileSize
	bufA := make([]float64, tile*tile)
	bufB := make([]float64, tile*tile)
	compute := p.computePerTask()
	for {
		t := counter.Next()
		if t >= int64(numTasks) {
			return res
		}
		i := int(t) / p.TilesPerDim
		j := int(t) % p.TilesPerDim
		// Contract over the anti-diagonal partner: guarantees most
		// fetches are remote.
		k := (i + j + 1) % p.TilesPerDim

		g0 := env.Now()
		a.Get(i*tile, (i+1)*tile, k*tile, (k+1)*tile, bufA)
		b.Get(k*tile, (k+1)*tile, j*tile, (j+1)*tile, bufB)
		res.GetTime += env.Now().Sub(g0)

		// The "DGEMM": simulated compute plus a cheap real kernel so
		// the accumulated data is meaningful. The product overwrites
		// bufA, which the next task's Get refills.
		for x := range bufA {
			bufA[x] *= bufB[x]
		}
		env.Compute(compute)

		c.Acc(i*tile, (i+1)*tile, j*tile, (j+1)*tile, bufA, 1)
		res.Tasks++
	}
}

// CheckSum returns the expected value of every element of C after one
// Run: each task writes A*B = 2 exactly once.
const CheckSum = 2.0

// Deployment is one core-assignment strategy of Table I: how the 24
// cores of a node are divided between application processes and
// asynchronous progress helpers.
type Deployment struct {
	Name      string
	PPN       int              // MPI ranks launched per node
	Ghosts    int              // Casper ghost processes per node (0 = no Casper)
	Progress  mpi.ProgressMode // baseline async progress mode
	Oversub   bool             // progress threads share cores (Thread(O))
	UserCores int              // cores doing application compute
}

// Deployments returns Table I for nodes with coresPerNode cores: the
// same total core budget split four ways.
func Deployments(coresPerNode int) []Deployment {
	half := coresPerNode / 2
	casperGhosts := coresPerNode / 6 // 4 ghosts on a 24-core node
	return []Deployment{
		{Name: "Original MPI", PPN: coresPerNode, Progress: mpi.ProgressNone,
			UserCores: coresPerNode},
		{Name: "Casper", PPN: coresPerNode, Ghosts: casperGhosts,
			Progress: mpi.ProgressNone, UserCores: coresPerNode - casperGhosts},
		{Name: "Thread(O)", PPN: coresPerNode, Progress: mpi.ProgressThread,
			Oversub: true, UserCores: coresPerNode},
		{Name: "Thread(D)", PPN: half, Progress: mpi.ProgressThread,
			UserCores: half},
	}
}

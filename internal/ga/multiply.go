package ga

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Multiply computes C = A*B over three equally sized square arrays
// using the owner-computes scheme of GA's classic matrix multiply: each
// rank walks panels of the contraction dimension, fetches the needed A
// and B panels with one-sided Gets, multiplies locally, and accumulates
// into its own C tile. All communication is passive-target RMA, so the
// routine runs unchanged over plain MPI or Casper.
//
// panel is the contraction block width; nsPerFlop charges simulated
// compute for the local dgemm (0 disables). Collective.
func Multiply(a, b, c *Array, panel int, nsPerFlop float64) error {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	cr, cc := c.Dims()
	if ar != ac || ar != br || br != bc || cr != cc || cr != ar {
		return fmt.Errorf("ga: Multiply needs equal square arrays (got %dx%d * %dx%d -> %dx%d)",
			ar, ac, br, bc, cr, cc)
	}
	if panel <= 0 || ar%panel != 0 {
		return fmt.Errorf("ga: panel %d must divide dimension %d", panel, ar)
	}
	n := ar
	env := c.env

	r0, r1, c0, c1 := c.Distribution()
	rows, cols := r1-r0, c1-c0
	acc := make([]float64, rows*cols)
	bufA := make([]float64, rows*panel)
	bufB := make([]float64, panel*cols)

	for k := 0; k < n; k += panel {
		a.Get(r0, r1, k, k+panel, bufA)
		b.Get(k, k+panel, c0, c1, bufB)
		for i := 0; i < rows; i++ {
			for kk := 0; kk < panel; kk++ {
				av := bufA[i*panel+kk]
				if av == 0 {
					continue
				}
				row := bufB[kk*cols : (kk+1)*cols]
				out := acc[i*cols : (i+1)*cols]
				for j := range row {
					out[j] += av * row[j]
				}
			}
		}
		if nsPerFlop > 0 {
			env.Compute(sim.Duration(2 * float64(rows*cols*panel) * nsPerFlop))
		}
	}
	c.SetLocal(acc)
	c.Sync()
	return nil
}

// MustMultiply is Multiply that panics on error.
func MustMultiply(a, b, c *Array, panel int, nsPerFlop float64) {
	if err := Multiply(a, b, c, panel, nsPerFlop); err != nil {
		panic(err)
	}
}

// FillPattern sets every element the caller owns to fn(i, j) of its
// global coordinates (collective with Sync).
func (a *Array) FillPattern(fn func(i, j int) float64) {
	r0, r1, c0, c1 := a.Distribution()
	k := 0
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			mpi.EncodeFloat64(a.loc[k:], fn(i, j))
			k += 8
		}
	}
	a.Sync()
}

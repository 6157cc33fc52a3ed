package ga

import "repro/internal/mpi"

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Local returns the caller's local tile data (row-major).
func (a *Array) Local() []float64 { return mpi.GetFloat64s(a.loc) }

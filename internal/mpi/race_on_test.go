//go:build race

package mpi

// underRace reports that the race detector is compiled in; it allocates
// on its own account, which moves exact allocation counts.
const underRace = true

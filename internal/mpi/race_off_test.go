//go:build !race

package mpi

const underRace = false

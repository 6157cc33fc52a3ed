// Package cluster describes the simulated machine: nodes with cores
// grouped into NUMA domains, and the placement of MPI ranks onto them.
//
// Placement is the topology substrate the paper's ghost-process binding
// relies on (Section II-A): Casper queries which ranks share a node,
// which NUMA domain each rank lives in, and binds ghost processes close
// to the user processes they serve.
package cluster

import "fmt"

// Machine describes homogeneous cluster hardware.
type Machine struct {
	Nodes        int // number of compute nodes
	CoresPerNode int // cores on each node
	NUMAPerNode  int // NUMA domains per node (divides CoresPerNode)
}

// Validate reports whether the machine description is self-consistent.
func (m Machine) Validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes = %d, must be positive", m.Nodes)
	case m.CoresPerNode <= 0:
		return fmt.Errorf("cluster: CoresPerNode = %d, must be positive", m.CoresPerNode)
	case m.NUMAPerNode <= 0:
		return fmt.Errorf("cluster: NUMAPerNode = %d, must be positive", m.NUMAPerNode)
	case m.CoresPerNode%m.NUMAPerNode != 0:
		return fmt.Errorf("cluster: CoresPerNode %d not divisible by NUMAPerNode %d",
			m.CoresPerNode, m.NUMAPerNode)
	}
	return nil
}

// CoresPerNUMA returns the cores in one NUMA domain.
func (m Machine) CoresPerNUMA() int { return m.CoresPerNode / m.NUMAPerNode }

// Placement maps a world of ranks onto a machine in block order: rank r
// occupies core r mod ppn of node r div ppn. This matches the typical
// block-by-node mapping of aprun/mpiexec that the paper assumes (Fig. 1).
type Placement struct {
	m   Machine
	n   int
	ppn int
}

// NewPlacement places n ranks with ppn ranks per node. The last node may
// be partially filled.
func NewPlacement(m Machine, n, ppn int) (*Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	switch {
	case n <= 0:
		return nil, fmt.Errorf("cluster: placing %d ranks", n)
	case ppn <= 0:
		return nil, fmt.Errorf("cluster: ppn = %d", ppn)
	case ppn > m.CoresPerNode:
		return nil, fmt.Errorf("cluster: ppn %d exceeds %d cores per node", ppn, m.CoresPerNode)
	}
	needed := (n + ppn - 1) / ppn
	if needed > m.Nodes {
		return nil, fmt.Errorf("cluster: %d ranks at ppn %d need %d nodes, machine has %d",
			n, ppn, needed, m.Nodes)
	}
	return &Placement{m: m, n: n, ppn: ppn}, nil
}

// MustPlace is NewPlacement but panics on error; for tests and benchmarks
// with known-good parameters.
func MustPlace(m Machine, n, ppn int) *Placement {
	p, err := NewPlacement(m, n, ppn)
	if err != nil {
		panic(err)
	}
	return p
}

// Machine returns the underlying machine description.
func (p *Placement) Machine() Machine { return p.m }

// N returns the number of placed ranks.
func (p *Placement) N() int { return p.n }

// PPN returns the ranks-per-node density.
func (p *Placement) PPN() int { return p.ppn }

// NodesUsed returns how many nodes hold at least one rank.
func (p *Placement) NodesUsed() int { return (p.n + p.ppn - 1) / p.ppn }

func (p *Placement) check(rank int) {
	if rank < 0 || rank >= p.n {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, p.n))
	}
}

// Node returns the node index hosting rank.
func (p *Placement) Node(rank int) int {
	p.check(rank)
	return rank / p.ppn
}

// Core returns the on-node core index of rank.
func (p *Placement) Core(rank int) int {
	p.check(rank)
	return rank % p.ppn
}

// NUMA returns the NUMA domain (within its node) of rank.
func (p *Placement) NUMA(rank int) int {
	return p.Core(rank) / p.m.CoresPerNUMA()
}

// SameNode reports whether two ranks share a node.
func (p *Placement) SameNode(a, b int) bool { return p.Node(a) == p.Node(b) }

// SameNUMA reports whether two ranks share both node and NUMA domain.
func (p *Placement) SameNUMA(a, b int) bool {
	return p.SameNode(a, b) && p.NUMA(a) == p.NUMA(b)
}

// NodeRanks returns the ranks hosted on node, in rank order.
func (p *Placement) NodeRanks(node int) []int {
	lo := node * p.ppn
	if lo >= p.n {
		return nil
	}
	hi := lo + p.ppn
	if hi > p.n {
		hi = p.n
	}
	ranks := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

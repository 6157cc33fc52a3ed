package cluster

import (
	"testing"
	"testing/quick"
)

func edison() Machine { return Machine{Nodes: 64, CoresPerNode: 24, NUMAPerNode: 2} }

func TestMachineValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Machine
		ok   bool
	}{
		{"edison", edison(), true},
		{"zero nodes", Machine{0, 24, 2}, false},
		{"zero cores", Machine{4, 0, 2}, false},
		{"zero numa", Machine{4, 24, 0}, false},
		{"indivisible numa", Machine{4, 24, 5}, false},
		{"single core", Machine{1, 1, 1}, true},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestMachineDerived(t *testing.T) {
	m := edison()
	if m.CoresPerNUMA() != 12 {
		t.Errorf("CoresPerNUMA = %d", m.CoresPerNUMA())
	}
}

func TestPlacementBlockMapping(t *testing.T) {
	p := MustPlace(edison(), 48, 16)
	if p.NodesUsed() != 3 {
		t.Fatalf("NodesUsed = %d, want 3", p.NodesUsed())
	}
	if p.Node(0) != 0 || p.Node(15) != 0 || p.Node(16) != 1 || p.Node(47) != 2 {
		t.Error("block node mapping wrong")
	}
	if p.Core(16) != 0 || p.Core(17) != 1 {
		t.Error("core mapping wrong")
	}
}

func TestPlacementNUMA(t *testing.T) {
	p := MustPlace(edison(), 24, 24)
	if p.NUMA(0) != 0 || p.NUMA(11) != 0 || p.NUMA(12) != 1 || p.NUMA(23) != 1 {
		t.Error("NUMA domain mapping wrong")
	}
	if !p.SameNUMA(0, 11) || p.SameNUMA(11, 12) {
		t.Error("SameNUMA wrong")
	}
}

func TestPlacementSameNode(t *testing.T) {
	p := MustPlace(edison(), 32, 16)
	if !p.SameNode(0, 15) || p.SameNode(15, 16) {
		t.Error("SameNode wrong")
	}
}

func TestNodeRanks(t *testing.T) {
	p := MustPlace(edison(), 20, 16)
	r0 := p.NodeRanks(0)
	if len(r0) != 16 || r0[0] != 0 || r0[15] != 15 {
		t.Errorf("NodeRanks(0) = %v", r0)
	}
	r1 := p.NodeRanks(1)
	if len(r1) != 4 || r1[0] != 16 || r1[3] != 19 {
		t.Errorf("NodeRanks(1) = %v (partial node)", r1)
	}
	if p.NodeRanks(5) != nil {
		t.Error("NodeRanks beyond used nodes should be nil")
	}
}

func TestPlacementErrors(t *testing.T) {
	m := edison()
	cases := []struct {
		name   string
		n, ppn int
	}{
		{"zero ranks", 0, 16},
		{"zero ppn", 8, 0},
		{"ppn exceeds cores", 8, 25},
		{"too many ranks", 64*24 + 1, 24},
	}
	for _, c := range cases {
		if _, err := NewPlacement(m, c.n, c.ppn); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := NewPlacement(Machine{0, 1, 1}, 1, 1); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestRankRangePanics(t *testing.T) {
	p := MustPlace(edison(), 8, 8)
	for _, bad := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for rank %d", bad)
				}
			}()
			p.Node(bad)
		}()
	}
}

func TestMustPlacePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPlace did not panic")
		}
	}()
	MustPlace(edison(), 0, 1)
}

// Property: every rank appears in exactly one node's NodeRanks, at
// position Core, and node/core round-trip to the rank id.
func TestPlacementPartitionProperty(t *testing.T) {
	f := func(nRaw, ppnRaw uint8) bool {
		n := int(nRaw%200) + 1
		ppn := int(ppnRaw%24) + 1
		m := Machine{Nodes: (n+ppn-1)/ppn + 1, CoresPerNode: 24, NUMAPerNode: 2}
		p, err := NewPlacement(m, n, ppn)
		if err != nil {
			return false
		}
		seen := 0
		for node := 0; node < p.NodesUsed(); node++ {
			for i, r := range p.NodeRanks(node) {
				if p.Node(r) != node || p.Core(r) != i {
					return false
				}
				if r != node*ppn+i {
					return false
				}
				seen++
			}
		}
		return seen == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

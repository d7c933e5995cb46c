package route

import (
	"meshsort/internal/engine"
	"meshsort/internal/topo"
)

// DimOrder is the classic e-cube dimension-order policy, expressed
// against the Topology interface: scan the link window from the highest
// id down and take the first link that strictly reduces the distance to
// the destination. On a mesh this corrects the least significant
// coordinate first (the textbook e-cube order — the mirror image of
// Greedy's most-significant-first scan), preferring the +1 direction on
// torus ties exactly as Greedy does, since within a dimension the +1
// link has the higher id. On any topology with exact Dist it is
// monotone: a one-hop move can lower the distance by at most one, so a
// strictly-reducing link lowers it by exactly one.
//
// DimOrder ignores the class: it routes a single stream. It trades the
// stride arithmetic of Greedy for generality — two Dist calls per
// candidate link — and is the default for topologies without a
// specialized policy.
type DimOrder struct {
	tp topo.Topology
}

// NewDimOrder returns the dimension-order policy for the topology.
func NewDimOrder(t topo.Topology) *DimOrder {
	return &DimOrder{tp: t}
}

// NextLink implements engine.Policy.
func (p *DimOrder) NextLink(rank, dst, class int) int {
	if rank == dst {
		return -1
	}
	cur := p.tp.Dist(rank, dst)
	for l := p.tp.Links() - 1; l >= 0; l-- {
		if recv, ok := p.tp.Neighbor(rank, l); ok && p.tp.Dist(recv, dst) < cur {
			return l
		}
	}
	return -1
}

// CliqueDirect routes on the complete graph by the only sensible move:
// the direct edge to the destination. Every packet's path has length
// one, so a k-relation delivers in at most k steps (each directed edge
// carries at most k packets and drains one per step) — the bound the
// clique experiment reports against. O(1) per call where the generic
// DimOrder scan would pay O(n) per packet per step.
type CliqueDirect struct {
	c *topo.Clique
}

// NewCliqueDirect returns the direct-routing policy for the clique.
func NewCliqueDirect(c *topo.Clique) CliqueDirect {
	return CliqueDirect{c: c}
}

// NextLink implements engine.Policy.
func (p CliqueDirect) NextLink(rank, dst, class int) int {
	if rank == dst {
		return -1
	}
	return p.c.LinkTo(rank, dst)
}

// DefaultPolicy returns the canonical policy for a topology: the
// paper's dimension-order greedy scheme on meshes and tori (fault-aware
// when a plan is present), direct routing on the clique, and the
// generic DimOrder scan for anything else.
func DefaultPolicy(t topo.Topology, faults *engine.FaultPlan) engine.Policy {
	if s, ok := topo.MeshShape(t); ok {
		if faults != nil {
			return NewFaultGreedy(s, faults)
		}
		return NewGreedy(s)
	}
	if c, ok := t.(*topo.Clique); ok {
		return NewCliqueDirect(c)
	}
	return NewDimOrder(t)
}

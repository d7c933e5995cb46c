// Package topo defines the pluggable topology layer of the routing
// engine: the graph a network simulates, expressed in the terms the
// engine's data plane needs — uniform link-id windows and distances —
// rather than as an adjacency list.
//
// The engine (internal/engine) owns the packets and the step loop; a
// Topology owns the graph. Mesh is the precomputed-stride mesh/torus of
// the source paper and remains the engine's zero-overhead fast path (the
// step loop recognizes it by type and keeps its inline coordinate math);
// every other topology routes through the interface methods. Clique, the
// complete graph, is the first non-mesh topology: the congested-clique
// model of Lenzen's O(1)-round routing results.
package topo

import "meshsort/internal/grid"

// Topology is the graph contract the engine routes on. Implementations
// must be immutable after construction and safe for concurrent use:
// networks routing concurrently on different goroutines may share one
// topology and call Neighbor and Dist at the same time.
//
// Link identity. Every processor owns link ids [0, Links()), a uniform
// window even when degrees vary (a mesh corner has fewer edges than an
// interior node): the engine sizes its link contest and its load
// counters by Links(), and routing policies name moves by link id. Link
// ids that carry no edge at a given rank are legal policy vocabulary —
// Neighbor reports ok=false and the engine treats requesting them as a
// policy error — so Links() must be the maximum over ranks of the
// per-rank degree, and no larger than necessary.
//
// Distances. Dist is the shortest-path hop count; the engine uses it for
// activation budgets, monotonicity checking, and watchdog defaults, so
// it must be exact. Diameter is max Dist over pairs.
type Topology interface {
	// N returns the number of processors. Ranks are [0, N).
	N() int

	// Links returns the uniform per-processor link-id window width: the
	// maximum out-degree. Link ids are [0, Links()).
	Links() int

	// Degree returns the number of outgoing edges of the rank (the count
	// of link ids with Neighbor ok).
	Degree(rank int) int

	// Neighbor resolves the directed edge behind (rank, link): the
	// neighbor it reaches. ok is false when the link id carries no edge
	// at this rank (e.g. off a mesh boundary).
	Neighbor(rank, link int) (recv int, ok bool)

	// Reverse pairs (rank, link) with the opposite directed edge of the
	// same physical edge: the neighbor reached and the neighbor's link id
	// pointing back. ok is false when the link carries no edge. Fault
	// plans use this to take down both directions of a physical edge
	// together.
	Reverse(rank, link int) (recv, backLink int, ok bool)

	// Dist returns the shortest-path hop count between two ranks.
	Dist(a, b int) int

	// Diameter returns the maximum Dist over all rank pairs.
	Diameter() int

	// String names the topology, e.g. "3d-mesh(n=16)" or "clique(n=64)".
	String() string
}

// SameGeometry reports whether two topologies share the engine-facing
// layout — processor count and link window — closely enough that a
// network built for a can be Reset to b without rebuilding its
// per-processor queues or step scratch.
// Mesh and torus of the same dimension and side share geometry (the
// wrap flag is consulted live, never cached in engine storage); a mesh
// never shares geometry with a clique even at equal N and Links,
// because the step scratch caches mesh-only stride tables.
func SameGeometry(a, b Topology) bool {
	switch at := a.(type) {
	case *Mesh:
		bt, ok := b.(*Mesh)
		return ok && at.shape.Dim == bt.shape.Dim && at.shape.Side == bt.shape.Side
	case *Clique:
		bt, ok := b.(*Clique)
		return ok && at.n == bt.n
	}
	return false
}

// MeshShape returns the grid shape behind a mesh/torus topology, and
// whether t is one. Mesh-only consumers (the sorting algorithms, the
// indexing schemes) use this to recover coordinate arithmetic.
func MeshShape(t Topology) (grid.Shape, bool) {
	if m, ok := t.(*Mesh); ok {
		return m.shape, true
	}
	return grid.Shape{}, false
}

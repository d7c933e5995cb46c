package topo

import (
	"fmt"
	"testing"

	"meshsort/internal/grid"
)

// conformanceCases are the topologies every contract test runs against:
// meshes and tori across dimensions (including the side-2 torus whose
// doubled edges stress Reverse pairing) and cliques down to the minimal
// two-node instance.
func conformanceCases() []Topology {
	return []Topology{
		NewMesh(grid.New(1, 5)),
		NewMesh(grid.New(2, 4)),
		NewMesh(grid.New(3, 3)),
		NewMesh(grid.NewTorus(2, 5)),
		NewMesh(grid.NewTorus(2, 2)),
		NewMesh(grid.NewTorus(3, 4)),
		NewClique(2),
		NewClique(7),
		NewClique(16),
	}
}

// TestNeighborContract checks the link-identity core of the interface:
// Neighbor reaches a valid other rank, Reverse pairs each directed edge
// with a mutual opposite, and Degree counts exactly the ok links.
func TestNeighborContract(t *testing.T) {
	for _, tp := range conformanceCases() {
		t.Run(tp.String(), func(t *testing.T) {
			n, links := tp.N(), tp.Links()
			if links < 1 {
				t.Fatalf("Links() = %d", links)
			}
			for rank := 0; rank < n; rank++ {
				deg := 0
				for link := 0; link < links; link++ {
					recv, ok := tp.Neighbor(rank, link)
					if !ok {
						continue
					}
					deg++
					if recv < 0 || recv >= n || recv == rank {
						t.Fatalf("Neighbor(%d, %d) reaches invalid rank %d", rank, link, recv)
					}
					rrecv, back, rok := tp.Reverse(rank, link)
					if !rok || rrecv != recv {
						t.Fatalf("Reverse(%d, %d) = (%d, %d, %t), want recv %d", rank, link, rrecv, back, rok, recv)
					}
					r2, back2, ok2 := tp.Reverse(recv, back)
					if !ok2 || r2 != rank || back2 != link {
						t.Fatalf("Reverse round-trip from (%d, %d): got (%d, %d, %t), want (%d, %d)",
							rank, link, r2, back2, ok2, rank, link)
					}
				}
				if got := tp.Degree(rank); got != deg {
					t.Fatalf("Degree(%d) = %d but %d links carry edges", rank, got, deg)
				}
			}
		})
	}
}

// bfsDist computes single-source shortest paths by breadth-first search
// over Neighbor — the ground truth Dist is checked against.
func bfsDist(tp Topology, src int) []int {
	n, links := tp.N(), tp.Links()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for l := 0; l < links; l++ {
			if nb, ok := tp.Neighbor(r, l); ok && dist[nb] < 0 {
				dist[nb] = dist[r] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// TestDistMatchesBFS checks Dist exactness and the Diameter claim
// against breadth-first search over the edge set.
func TestDistMatchesBFS(t *testing.T) {
	for _, tp := range conformanceCases() {
		t.Run(tp.String(), func(t *testing.T) {
			n := tp.N()
			maxDist := 0
			for a := 0; a < n; a++ {
				dist := bfsDist(tp, a)
				for b := 0; b < n; b++ {
					if dist[b] < 0 {
						t.Fatalf("rank %d unreachable from %d", b, a)
					}
					if got := tp.Dist(a, b); got != dist[b] {
						t.Fatalf("Dist(%d, %d) = %d, BFS says %d", a, b, got, dist[b])
					}
					if got := tp.Dist(b, a); got != dist[b] {
						t.Fatalf("Dist(%d, %d) = %d, want symmetric %d", b, a, got, dist[b])
					}
					if dist[b] > maxDist {
						maxDist = dist[b]
					}
				}
			}
			if got := tp.Diameter(); got != maxDist {
				t.Fatalf("Diameter() = %d, BFS says %d", got, maxDist)
			}
		})
	}
}

// TestMeshNeighborMatchesStep pins the mesh's link encoding (dim*2 +
// dirBit) against grid.Shape.Step, the coordinate arithmetic the
// engine's inline mesh path uses instead of Neighbor.
func TestMeshNeighborMatchesStep(t *testing.T) {
	for _, s := range []grid.Shape{grid.New(2, 4), grid.NewTorus(3, 3), grid.NewTorus(2, 2)} {
		m := NewMesh(s)
		for rank := 0; rank < m.N(); rank++ {
			for link := 0; link < m.Links(); link++ {
				recv, ok := m.Neighbor(rank, link)
				nb, legal := s.Step(rank, link/2, dirOf(link))
				if ok != legal || (ok && nb != recv) {
					t.Fatalf("%v: Neighbor(%d, %d) = (%d, %t) but Step says (%d, %t)", s, rank, link, recv, ok, nb, legal)
				}
			}
		}
	}
}

func dirOf(link int) int {
	if link%2 == 1 {
		return 1
	}
	return -1
}

func TestCliqueLinkTo(t *testing.T) {
	c := NewClique(9)
	for r := 0; r < 9; r++ {
		for d := 0; d < 9; d++ {
			if d == r {
				continue
			}
			l := c.LinkTo(r, d)
			recv, ok := c.Neighbor(r, l)
			if !ok || recv != d {
				t.Fatalf("LinkTo(%d, %d) = %d reaches (%d, %t)", r, d, l, recv, ok)
			}
		}
	}
}

func TestSameGeometry(t *testing.T) {
	mesh44 := NewMesh(grid.New(2, 4))
	torus44 := NewMesh(grid.NewTorus(2, 4))
	cases := []struct {
		a, b Topology
		want bool
	}{
		{mesh44, torus44, true}, // wrap flag flips freely
		{mesh44, NewMesh(grid.New(2, 4)), true},
		{mesh44, NewMesh(grid.New(2, 8)), false},
		{mesh44, NewMesh(grid.New(4, 2)), false}, // equal N, different strides
		{NewClique(5), NewClique(5), true},
		{NewClique(5), NewClique(6), false},
		{mesh44, NewClique(16), false}, // equal N, different layout contract
		{NewClique(16), mesh44, false},
	}
	for _, c := range cases {
		if got := SameGeometry(c.a, c.b); got != c.want {
			t.Errorf("SameGeometry(%v, %v) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

func TestMeshShape(t *testing.T) {
	s := grid.NewTorus(3, 4)
	if got, ok := MeshShape(NewMesh(s)); !ok || got != s {
		t.Fatalf("MeshShape(mesh) = (%v, %t)", got, ok)
	}
	if _, ok := MeshShape(NewClique(4)); ok {
		t.Fatalf("MeshShape(clique) reported a shape")
	}
}

// TestDegenerateShapes pins the validation satellite: hand-built
// degenerate shapes are rejected with a clear panic at the topology
// boundary instead of silently mis-striding.
func TestDegenerateShapes(t *testing.T) {
	bad := []grid.Shape{
		{Dim: 0, Side: 4},
		{Dim: -1, Side: 4},
		{Dim: 2, Side: 1},
		{Dim: 2, Side: 0},
		{Dim: 3, Side: -2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a degenerate shape", s)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%+v) did not panic", s)
				}
			}()
			NewMesh(s)
		}()
	}
	if err := grid.New(3, 16).Validate(); err != nil {
		t.Fatalf("Validate rejected a valid shape: %v", err)
	}
	for _, n := range []int{1, 0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClique(%d) did not panic", n)
				}
			}()
			NewClique(n)
		}()
	}
}

func TestStrings(t *testing.T) {
	if got := NewClique(64).String(); got != "clique(n=64)" {
		t.Fatalf("clique String() = %q", got)
	}
	if got := NewMesh(grid.New(3, 16)).String(); got != "3d-mesh(n=16)" {
		t.Fatalf("mesh String() = %q", got)
	}
}

func ExampleClique_Neighbor() {
	c := NewClique(4)
	for l := 0; l < c.Links(); l++ {
		recv, _ := c.Neighbor(2, l)
		_, back, _ := c.Reverse(2, l)
		fmt.Printf("link %d -> rank %d (back-link %d)\n", l, recv, back)
	}
	// Output:
	// link 0 -> rank 0 (back-link 1)
	// link 1 -> rank 1 (back-link 1)
	// link 2 -> rank 3 (back-link 2)
}

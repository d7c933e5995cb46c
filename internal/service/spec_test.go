package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/topo"
)

func mustCanon(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", spec, err)
	}
	return c
}

// admitSpec is Submit's spec check: Canonicalize, then the resource
// ceilings.
func admitSpec(spec JobSpec) error {
	c, err := spec.Canonicalize()
	if err != nil {
		return err
	}
	return admit(c)
}

func TestCanonicalizeDefaults(t *testing.T) {
	c := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8})
	if c.B != 4 || c.K != 1 || c.Seed != 1 || c.Indexing != IndexingBlockedSnake {
		t.Errorf("defaults not filled: %+v", c)
	}
	// Idempotent: canonicalizing the canonical form is a fixed point.
	if c2 := mustCanon(t, c); c2 != c {
		t.Errorf("Canonicalize not idempotent: %+v != %+v", c2, c)
	}
	// A spec with the defaults spelled out canonicalizes (and hashes)
	// identically to one relying on the zero values.
	explicit := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8, B: 4, K: 1, Seed: 1, Indexing: IndexingBlockedSnake})
	if explicit != c || explicit.Key() != c.Key() {
		t.Errorf("explicit defaults canonicalize differently: %+v vs %+v", explicit, c)
	}

	if r := mustCanon(t, JobSpec{Alg: AlgRoute, D: 2, N: 8}); r.Perm != "random" {
		t.Errorf("route perm default = %q, want random", r.Perm)
	}
	if sel := mustCanon(t, JobSpec{Alg: AlgSelect, D: 2, N: 8}); sel.Target != 32 {
		t.Errorf("select target default = %d, want N/2 = 32", sel.Target)
	}
	if ts := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 2, N: 8}); !ts.Torus {
		t.Error("torussort did not force torus")
	}
	// The fault seed is canonicalized away when there is no fault plan.
	a := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, FaultSeed: 99})
	b := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8})
	if a.Key() != b.Key() {
		t.Error("fault seed changed the key of a fault-free spec")
	}
}

func TestCanonicalizeTopology(t *testing.T) {
	// The canonical form always names its topology explicitly, and the
	// legacy Torus flag stays consistent with it.
	if c := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8}); c.Topology != TopologyMesh {
		t.Errorf("mesh default topology = %q", c.Topology)
	}
	if c := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 3, N: 8}); c.Topology != TopologyTorus || !c.Torus {
		t.Errorf("torussort topology = %q torus=%t", c.Topology, c.Torus)
	}
	// topology=torus is the same spec as torus=true: one canonical form,
	// one cache key.
	byFlag := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, Torus: true})
	byTopo := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyTorus})
	if byFlag != byTopo || byFlag.Key() != byTopo.Key() {
		t.Errorf("torus spellings canonicalize differently: %+v vs %+v", byFlag, byTopo)
	}

	c := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, N: 64, K: 3})
	if c.Topology != TopologyClique || c.D != 1 || c.K != 3 || c.Seed != 1 ||
		c.Indexing != IndexingNone || c.Perm != "random" || c.B != 0 {
		t.Errorf("clique canonical form: %+v", c)
	}
	if c2 := mustCanon(t, c); c2 != c {
		t.Errorf("clique Canonicalize not idempotent: %+v != %+v", c2, c)
	}
	if c.ShapeKey() != "clique/64" {
		t.Errorf("clique shape key = %q", c.ShapeKey())
	}
	if c.Topo().N() != 64 || c.Topo().Diameter() != 1 {
		t.Errorf("clique Topo: %v", c.Topo())
	}
	// topology=clique on the spec is redundant but accepted.
	if c2 := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, Topology: TopologyClique, N: 64, K: 3}); c2 != c {
		t.Errorf("explicit clique topology canonicalizes differently: %+v", c2)
	}
	// Clique keys are distinct across n and k.
	other := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, N: 64, K: 4})
	if c.Key() == other.Key() {
		t.Error("clique specs with different k share a cache key")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no alg", JobSpec{D: 2, N: 8}, "missing alg"},
		{"unknown alg", JobSpec{Alg: "quicksort", D: 2, N: 8}, "unknown alg"},
		{"dim", JobSpec{Alg: AlgSimple, D: 9, N: 4}, "out of range"},
		// Over a ceiling and invalid (too few processors per block, more
		// link slots than the engine can index): the validity error
		// comes first.
		{"side", JobSpec{Alg: AlgSimple, D: 2, N: 1000}, "block volume"},
		{"too big", JobSpec{Alg: AlgSimple, D: 6, N: 32}, "capacity"},
		// Valid, but over a ceiling.
		{"side ceiling", JobSpec{Alg: AlgSimple, D: 2, N: 128, B: 16}, "out of range [2,64]"},
		{"processor ceiling", JobSpec{Alg: AlgSimple, D: 4, N: 32, B: 16}, "ceiling"},
		{"packet ceiling", JobSpec{Alg: AlgSimple, D: 3, N: 64, B: 16, K: 5}, "k*N"},
		{"engine capacity", JobSpec{Alg: AlgRoute, D: 3, N: 2048}, "capacity"},
		{"int overflow", JobSpec{Alg: AlgRoute, D: 6, N: 1 << 20}, "overflows"},
		{"packet capacity", JobSpec{Alg: AlgSimple, D: 2, N: 8, K: 1 << 40}, "packet capacity"},
		{"clique packet capacity", JobSpec{Alg: AlgCliqueRoute, N: 64, K: 1 << 40}, "packet capacity"},
		{"clique capacity", JobSpec{Alg: AlgCliqueRoute, N: 40000}, "int16 link-id space"},
		{"copy on torus", JobSpec{Alg: AlgCopy, D: 2, N: 8, Torus: true}, "mesh algorithm"},
		{"block side", JobSpec{Alg: AlgSimple, D: 2, N: 8, B: 3}, "must divide"},
		{"k on copy", JobSpec{Alg: AlgCopy, D: 2, N: 8, K: 2}, "only k=1"},
		{"indexing", JobSpec{Alg: AlgSimple, D: 2, N: 8, Indexing: "hilbert"}, "unknown indexing"},
		{"perm on sort", JobSpec{Alg: AlgSimple, D: 2, N: 8, Perm: "random"}, "alg=route only"},
		{"bad perm", JobSpec{Alg: AlgRoute, D: 2, N: 8, Perm: "butterfly"}, "unknown perm"},
		{"target on sort", JobSpec{Alg: AlgSimple, D: 2, N: 8, Target: 3}, "alg=select only"},
		{"target range", JobSpec{Alg: AlgSelect, D: 2, N: 8, Target: 64}, "out of range"},
		{"fault rate", JobSpec{Alg: AlgSimple, D: 2, N: 8, Faults: 1.5}, "out of range"},
		{"odd blocks", JobSpec{Alg: AlgSimple, D: 2, N: 9, B: 3}, "even"},
		{"unknown topology", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: "hypercube"}, "unknown topology"},
		{"mesh topology with torus flag", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyMesh, Torus: true}, "conflicts"},
		{"sort on clique", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyClique}, "alg=cliqueroute"},
		{"cliqueroute on mesh", JobSpec{Alg: AlgCliqueRoute, N: 64, Topology: TopologyMesh}, "runs on the clique"},
		{"clique torus", JobSpec{Alg: AlgCliqueRoute, N: 64, Torus: true}, "no torus variant"},
		{"clique dim", JobSpec{Alg: AlgCliqueRoute, D: 2, N: 64}, "flat"},
		{"clique too big", JobSpec{Alg: AlgCliqueRoute, N: MaxCliqueNodes + 1}, "out of range"},
		{"clique too small", JobSpec{Alg: AlgCliqueRoute, N: 1}, "out of range"},
		{"clique k", JobSpec{Alg: AlgCliqueRoute, N: 64, K: MaxCliqueK + 1}, "out of range"},
		{"clique block side", JobSpec{Alg: AlgCliqueRoute, N: 64, B: 4}, "mesh/torus algorithms only"},
		{"clique indexing", JobSpec{Alg: AlgCliqueRoute, N: 64, Indexing: IndexingBlockedSnake}, "no meaning on the clique"},
		{"clique perm", JobSpec{Alg: AlgCliqueRoute, N: 64, Perm: "reversal"}, "mesh notions"},
		{"clique target", JobSpec{Alg: AlgCliqueRoute, N: 64, Target: 3}, "alg=select only"},
	}
	for _, tc := range bad {
		if err := admitSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestKeyAndShapeKey(t *testing.T) {
	a := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8})
	b := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8, Seed: 2})
	if a.Key() == b.Key() {
		t.Error("different seeds share a cache key")
	}
	if a.ShapeKey() != b.ShapeKey() || a.ShapeKey() != "mesh/3/8" {
		t.Errorf("shape keys: %q vs %q, want mesh/3/8", a.ShapeKey(), b.ShapeKey())
	}
	tor := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 3, N: 8})
	if tor.ShapeKey() != "torus/3/8" {
		t.Errorf("torus shape key = %q", tor.ShapeKey())
	}
	if !tor.Shape().Torus || a.Shape().Torus {
		t.Error("Shape torus flags wrong")
	}
}

// TestSortKnobs pins the realLocalSort and altEstimator spec fields:
// accepted for the core.Config algorithms, part of the cache key, and
// absent from the key (and the wire form) when unset, so every spec
// written before the fields existed keeps its key.
func TestSortKnobs(t *testing.T) {
	plain := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8})
	legacy := sha256.Sum256([]byte("alg=simple topo=mesh d=2 n=8 torus=false b=4 k=1 idx=blocked-snake seed=1 perm= load= inject= target=0 faults=0 fseed=0 patience=0"))
	if plain.Key() != hex.EncodeToString(legacy[:]) {
		t.Error("the key of a spec without realLocalSort/altEstimator changed")
	}
	keys := map[string]bool{plain.Key(): true}
	for _, spec := range []JobSpec{
		{Alg: AlgSimple, D: 2, N: 8, RealLocalSort: true},
		{Alg: AlgSimple, D: 2, N: 8, AltEstimator: true},
		{Alg: AlgSimple, D: 2, N: 8, RealLocalSort: true, AltEstimator: true},
	} {
		k := mustCanon(t, spec).Key()
		if keys[k] {
			t.Errorf("%+v shares a cache key with another knob setting", spec)
		}
		keys[k] = true
	}
	for _, alg := range []string{AlgCopy, AlgTorusSort, AlgFull, AlgSelect} {
		mustCanon(t, JobSpec{Alg: alg, D: 2, N: 8, RealLocalSort: true, AltEstimator: true})
	}
	for _, spec := range []JobSpec{
		{Alg: AlgRoute, D: 2, N: 8, RealLocalSort: true},
		{Alg: AlgTraffic, D: 2, N: 8, AltEstimator: true},
		{Alg: AlgCliqueRoute, N: 8, RealLocalSort: true},
	} {
		if _, err := spec.Canonicalize(); err == nil || !strings.Contains(err.Error(), "apply to the sorting algorithms") {
			t.Errorf("%+v: got %v, want the sort-knob rejection", spec, err)
		}
	}
	if body, _ := json.Marshal(plain); strings.Contains(string(body), "realLocalSort") || strings.Contains(string(body), "altEstimator") {
		t.Errorf("unset knobs appear on the wire: %s", body)
	}
}

// TestFaultPlan pins JobSpec.FaultPlan to the seeded generators: the
// grid plan on meshes and tori, the topology plan on the clique, nil on
// a perfect network.
func TestFaultPlan(t *testing.T) {
	if p := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8}).FaultPlan(); p != nil {
		t.Errorf("faults=0 built a plan: %v", p)
	}
	tor := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 2, N: 8, Faults: 0.1, FaultSeed: 3})
	if got, want := tor.FaultPlan().String(), engine.RandomFaultPlan(grid.NewTorus(2, 8), 0.1, 3).String(); got != want {
		t.Errorf("torus plan %s, want %s", got, want)
	}
	cl := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, N: 16, Faults: 0.1})
	if got, want := cl.FaultPlan().String(), engine.RandomFaultPlanTopo(topo.NewClique(16), 0.1, 1).String(); got != want {
		t.Errorf("clique plan %s, want %s", got, want)
	}
}

// TestCanonicalizeSkipsCeilings: a valid spec above every ceiling
// canonicalizes (the CLI runs it); admit alone rejects it.
func TestCanonicalizeSkipsCeilings(t *testing.T) {
	for _, spec := range []JobSpec{
		{Alg: AlgRoute, D: 2, N: 80},
		{Alg: AlgSimple, D: 3, N: 128, B: 16},
		{Alg: AlgCliqueRoute, N: 600, K: 600},
		{Alg: AlgTraffic, D: 2, N: 8, Inject: "window:2000000"},
	} {
		c := mustCanon(t, spec)
		if err := admit(c); err == nil {
			t.Errorf("admit accepted over-ceiling spec %+v", c)
		}
	}
}

func TestPermProblem(t *testing.T) {
	s := grid.New(2, 8)
	for _, name := range []string{"random", "reversal", "transpose", "hotspot"} {
		p, err := PermProblem(name, s, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(s.N(), 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PermProblem("butterfly", s, 1); err == nil {
		t.Error("unknown permutation accepted")
	}
}

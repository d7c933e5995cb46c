// Package service multiplexes many independent simulation jobs over a
// bounded pool of warm pipeline runners.
//
// A JobSpec names one run of one of the paper's algorithms (algorithm,
// shape, block side, packets per processor, seed, fault plan). Specs are
// canonicalized — defaults filled in, fields validated — so that two
// requests for the same simulation share one canonical form and one
// cache key. The Service leases a warm runner keyed by network shape
// (same-shape jobs hit Runner.Reset instead of reallocating), executes
// the spec on it with Run — the same entry point cmd/meshsort calls —
// and serves repeated specs from a sharded LRU result cache without
// re-simulating. Admission is bounded: when the queue is full Submit
// returns ErrOverloaded instead of queuing unboundedly, and admit holds
// specs to the resource ceilings. See DESIGN.md §6.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
)

// Algorithms the service accepts. They are exactly the pipeline-backed
// entry points of internal/core; baselines that bypass the runner
// (odd-even transposition, whole-mesh shearsort) stay CLI-only.
const (
	AlgSimple      = "simple"      // SimpleSort, Theorem 3.1 (k-k via K)
	AlgCopy        = "copy"        // CopySort, Theorem 3.2 (mesh only)
	AlgTorusSort   = "torussort"   // TorusSort, Theorem 3.3 (torus only)
	AlgFull        = "full"        // FullSort, the 2D + o(n) previous best
	AlgRoute       = "route"       // TwoPhaseRoute, Theorems 5.1/5.2
	AlgSelect      = "select"      // Select, Section 4.3
	AlgCliqueRoute = "cliqueroute" // direct greedy k-relation on the clique
	AlgTraffic     = "traffic"     // timed (ℓ,k) traffic with sojourn percentiles
)

// Topologies the service accepts. Mesh and torus are the paper's
// networks; the clique is the congested-clique comparison workload
// (alg=cliqueroute only). An empty Topology canonicalizes to mesh or
// torus per the Torus flag, so pre-topology specs keep their meaning.
const (
	TopologyMesh   = "mesh"
	TopologyTorus  = "torus"
	TopologyClique = "clique"
)

// IndexingBlockedSnake is the only indexing scheme the sorting and
// two-phase routing algorithms run on (internal/index's blocked
// snake-like order); the field exists so the canonical spec names its
// indexing explicitly. The clique has no blocked indexing — clique
// specs canonicalize to IndexingNone.
const (
	IndexingBlockedSnake = "blocked-snake"
	IndexingNone         = "none"
)

// Resource ceilings, enforced when the service admits a job (admit) so a
// single request cannot ask a shared server to build an arbitrarily
// large network. They do not define which specs are valid: Canonicalize
// checks only MaxDim and MaxDeadlineMS, and cmd/meshsort runs larger
// specs. The processor ceiling admits a full 64^3 mesh: with per-job
// deadlines and cancellation (DeadlineMS, DELETE /v1/jobs/{id}) a large
// job can no longer wedge a runner slot indefinitely, so the admission
// ceiling is a memory bound, not a runtime bound.
const (
	MaxDim        = 6
	MaxSide       = 64
	MaxProcessors = 1 << 19
	MaxPackets    = 1 << 20 // k * N

	// MaxCliqueNodes bounds the clique: every node carries n-1 links, so
	// memory grows quadratically in n (a 512-clique already builds ~262k
	// directed edges, the same order as the largest admissible mesh's
	// link count). MaxCliqueK bounds the k-relation multiplicity; greedy
	// direct routing delivers in <= k steps, so k is also the run's step
	// budget and must sit well under the engine's MaxSteps default
	// (64*diameter + 1024 = 1088 on the clique).
	MaxCliqueNodes = 512
	MaxCliqueK     = 512

	// MaxDeadlineMS caps requested deadlines at one hour; a deadline is a
	// client-abandonment bound, not a scheduling reservation.
	MaxDeadlineMS = 3_600_000

	// MaxInjectHorizon caps the last scheduled arrival clock of a timed
	// traffic job (alg=traffic): the engine extends its step budget past
	// the final arrival, so an unbounded window or a near-zero trickle
	// rate would turn one request into an arbitrarily long simulation.
	MaxInjectHorizon = 1 << 20
)

// JobSpec is the canonical description of one simulation job. The zero
// value of every optional field means "the default"; Canonicalize fills
// the defaults in, so two specs that request the same simulation
// canonicalize to identical values and share one cache Key.
type JobSpec struct {
	Alg string `json:"alg"` // simple|copy|torussort|full|route|select|cliqueroute
	// Topology selects the network: mesh|torus|clique. "" means mesh (or
	// torus when the Torus flag is set, or the topology the algorithm
	// forces — torussort implies torus, cliqueroute implies clique). On
	// the clique, D is forced to 1 and N is the node count.
	Topology string `json:"topology,omitempty"`
	D        int    `json:"d"`               // dimension (clique: forced to 1)
	N        int    `json:"n"`               // side length (clique: node count)
	Torus    bool   `json:"torus,omitempty"` // torus instead of mesh (forced by torussort)

	// B is the block side length; 0 picks DefaultBlockSide: 4 when it
	// divides n, else n/2.
	B int `json:"b,omitempty"`
	// K is the number of packets per processor (k-k sorting for simple,
	// the k-relation multiplicity for cliqueroute); 0 means 1.
	K int `json:"k,omitempty"`
	// Indexing names the block indexing scheme; "" means (and the only
	// accepted value is) "blocked-snake".
	Indexing string `json:"indexing,omitempty"`
	// Seed drives every random choice of the run (keys, permutations,
	// class assignment); 0 means 1. Runs are deterministic in the spec.
	Seed uint64 `json:"seed,omitempty"`

	// Perm is the routing problem for alg=route:
	// random|reversal|transpose|hotspot; "" means random. Must be empty
	// for the other algorithms.
	Perm string `json:"perm,omitempty"`
	// Load is the demand model for alg=traffic, in the workload DSL of
	// internal/traffic: perm, k:<k>, lk:l=<ℓ>,k=<k>,
	// hotspot:frac=<f>,targets=<t>, partial:frac=<f>. "" means perm.
	// Must be empty for the other algorithms.
	Load string `json:"load,omitempty"`
	// Inject is the arrival schedule for alg=traffic: batch,
	// window:<span>, trickle:<rate>. "" means batch. Must be empty for
	// the other algorithms.
	Inject string `json:"inject,omitempty"`
	// Target is the rank to select for alg=select; 0 means N/2 (the
	// median). Must be 0 for the other algorithms.
	Target int `json:"target,omitempty"`

	// Faults is the fraction of links to fail permanently (a seeded
	// random fault plan, as cmd/meshsort -faults); 0 means a perfect
	// network.
	Faults    float64 `json:"faults,omitempty"`
	FaultSeed uint64  `json:"faultSeed,omitempty"` // 0 means 1
	// Patience is the engine's stranding budget; 0 means the engine
	// default (auto when faults are on), negative disables stranding.
	Patience int `json:"patience,omitempty"`

	// DeadlineMS bounds the job's wall-clock lifetime in milliseconds,
	// measured from admission (queue wait included). A job past its
	// deadline stops cooperatively at the next engine step boundary and
	// reports status "timed-out" with the partial result accumulated so
	// far. 0 means no deadline. Deliberately excluded from the cache Key:
	// a deadline changes when a job is abandoned, never what its
	// simulation computes, so equal specs with different deadlines share
	// one cached result.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// RealLocalSort and AltEstimator are core.Config's knobs of the same
	// names (cmd/meshsort -real, -alt), for the sorting algorithms and
	// select only. Both change the result, so both are part of the Key.
	RealLocalSort bool `json:"realLocalSort,omitempty"`
	AltEstimator  bool `json:"altEstimator,omitempty"`
}

// Canonicalize validates the spec and returns it with every default
// made explicit. The returned spec is what the service runs, hashes,
// and reports back; Canonicalize is idempotent. The resource ceilings
// are admit's, not Canonicalize's.
func (s JobSpec) Canonicalize() (JobSpec, error) {
	switch s.Alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull, AlgRoute, AlgSelect, AlgCliqueRoute, AlgTraffic:
	case "":
		return s, fmt.Errorf("service: spec is missing alg")
	default:
		return s, fmt.Errorf("service: unknown alg %q", s.Alg)
	}
	// Resolve the topology. Algorithms that imply one force it
	// (torussort -> torus, cliqueroute -> clique); the Torus flag is the
	// pre-topology spelling of topology=torus and must agree when both
	// are given. After this block the canonical Topology is explicit and
	// consistent with Torus.
	switch s.Topology {
	case "", TopologyMesh, TopologyTorus, TopologyClique:
	default:
		return s, fmt.Errorf("service: unknown topology %q", s.Topology)
	}
	if s.Alg == AlgCliqueRoute {
		if s.Topology == TopologyMesh || s.Topology == TopologyTorus {
			return s, fmt.Errorf("service: cliqueroute runs on the clique, not topology %q", s.Topology)
		}
		s.Topology = TopologyClique
	} else if s.Topology == TopologyClique {
		return s, fmt.Errorf("service: alg %s runs on meshes and tori; the clique workload is alg=cliqueroute", s.Alg)
	}
	if s.K == 0 {
		s.K = 1
	}
	if s.K < 0 {
		return s, fmt.Errorf("service: k=%d out of range (k must be >= 1)", s.K)
	}
	var err error
	if s.Topology == TopologyClique {
		s, err = s.canonicalizeClique()
	} else {
		s, err = s.canonicalizeGrid()
	}
	if err != nil {
		return s, err
	}

	// Checks shared by every topology.
	n := s.N
	if s.Topology != TopologyClique {
		n = s.Shape().N()
	}
	if s.K > engine.MaxPackets/n {
		return s, fmt.Errorf("service: k=%d: k*N exceeds the engine's %d-packet capacity", s.K, engine.MaxPackets)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Alg == AlgSelect {
		if s.Target == 0 {
			s.Target = n / 2
		}
		if s.Target < 0 || s.Target >= n {
			return s, fmt.Errorf("service: target rank %d out of range [0,%d)", s.Target, n)
		}
	} else if s.Target != 0 {
		return s, fmt.Errorf("service: target applies to alg=select only")
	}
	if s.Alg == AlgTraffic {
		ld, err := traffic.ParseLoad(s.Load)
		if err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
		sc, err := traffic.ParseSchedule(s.Inject)
		if err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
		// Canonical DSL forms, so equivalent spellings ("k:4" vs "k:k=4")
		// share one cache key.
		s.Load = ld.String()
		s.Inject = sc.String()
	} else if s.Load != "" || s.Inject != "" {
		return s, fmt.Errorf("service: load and inject apply to alg=traffic only")
	}
	if s.DeadlineMS < 0 || s.DeadlineMS > MaxDeadlineMS {
		return s, fmt.Errorf("service: deadline_ms=%d out of range [0,%d]", s.DeadlineMS, MaxDeadlineMS)
	}
	if s.Faults < 0 || s.Faults >= 1 {
		return s, fmt.Errorf("service: fault rate %g out of range [0,1)", s.Faults)
	}
	if s.Faults == 0 {
		s.FaultSeed = 0 // no plan: the seed is not part of the canonical form
	} else if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	switch s.Alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull, AlgSelect:
	default:
		if s.RealLocalSort || s.AltEstimator {
			return s, fmt.Errorf("service: realLocalSort and altEstimator apply to the sorting algorithms and select, not alg=%s", s.Alg)
		}
	}
	return s, nil
}

// canonicalizeGrid validates the mesh/torus part of a spec (every alg
// but cliqueroute): shape, block side, k, indexing and perm.
func (s JobSpec) canonicalizeGrid() (JobSpec, error) {
	if s.Alg == AlgTorusSort {
		s.Torus = true
	}
	switch s.Topology {
	case TopologyMesh:
		if s.Torus {
			return s, fmt.Errorf("service: topology mesh conflicts with torus=true (alg %s)", s.Alg)
		}
	case TopologyTorus:
		s.Torus = true
	}
	if s.Torus {
		s.Topology = TopologyTorus
	} else {
		s.Topology = TopologyMesh
	}
	if s.D < 1 || s.D > MaxDim {
		return s, fmt.Errorf("service: dimension d=%d out of range [1,%d]", s.D, MaxDim)
	}
	if err := engine.CheckCapacity(grid.Shape{Dim: s.D, Side: s.N, Torus: s.Torus}); err != nil {
		return s, fmt.Errorf("service: %w", err)
	}
	if s.Alg == AlgCopy && s.Torus {
		return s, fmt.Errorf("service: copy is the mesh algorithm; use torussort on tori")
	}
	if s.Alg == AlgTraffic {
		// Timed traffic routes greedily without block machinery; a block
		// side would be dead weight in the cache key.
		if s.B != 0 {
			return s, fmt.Errorf("service: block side applies to the sorting and two-phase routing algorithms, not alg=traffic")
		}
	} else {
		if s.B == 0 {
			s.B = DefaultBlockSide(s.N)
		}
		if s.B < 1 || s.N%s.B != 0 {
			return s, fmt.Errorf("service: block side b=%d must divide n=%d", s.B, s.N)
		}
	}
	if s.K > 1 && s.Alg != AlgSimple {
		if s.Alg == AlgTraffic {
			return s, fmt.Errorf("service: alg traffic takes its multiplicity from the load DSL (e.g. load=%q), not k=%d", fmt.Sprintf("k:%d", s.K), s.K)
		}
		return s, fmt.Errorf("service: alg %s supports only k=1 (got k=%d); use simple for k-k", s.Alg, s.K)
	}
	if s.Alg == AlgTraffic {
		switch s.Indexing {
		case "", IndexingNone:
			s.Indexing = IndexingNone
		default:
			return s, fmt.Errorf("service: indexing %q has no meaning for alg=traffic (greedy routing uses no blocked order)", s.Indexing)
		}
	} else {
		switch s.Indexing {
		case "":
			s.Indexing = IndexingBlockedSnake
		case IndexingBlockedSnake:
		default:
			return s, fmt.Errorf("service: unknown indexing %q (the algorithms run on %q)", s.Indexing, IndexingBlockedSnake)
		}
	}
	if s.Alg == AlgRoute {
		switch s.Perm {
		case "":
			s.Perm = "random"
		case "random", "reversal", "transpose", "hotspot":
		default:
			return s, fmt.Errorf("service: unknown perm %q", s.Perm)
		}
	} else if s.Perm != "" {
		return s, fmt.Errorf("service: perm applies to alg=route only")
	}
	// The sorting algorithms have divisibility constraints beyond the
	// ones above (even block count, block volume divisible by block
	// count); surface them at admission time instead of as a failed job.
	if s.Alg != AlgRoute && s.Alg != AlgTraffic {
		cfg := core.Config{Shape: s.Shape(), BlockSide: s.B, K: s.K}
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
	}
	return s, nil
}

// canonicalizeClique validates the clique part of a spec
// (alg=cliqueroute). The mesh-only fields — Torus, B, a blocked
// indexing, the mesh destination patterns — have no clique meaning and
// are rejected rather than silently ignored.
func (s JobSpec) canonicalizeClique() (JobSpec, error) {
	if s.Torus {
		return s, fmt.Errorf("service: the clique has no torus variant")
	}
	if s.D != 0 && s.D != 1 {
		return s, fmt.Errorf("service: clique dimension d=%d (the clique is flat; omit d or use 1)", s.D)
	}
	s.D = 1
	if s.N < 2 {
		return s, fmt.Errorf("service: clique size n=%d out of range (n >= 2)", s.N)
	}
	if err := engine.CheckTopology(topo.NewClique(s.N)); err != nil {
		return s, fmt.Errorf("service: %w", err)
	}
	if s.B != 0 {
		return s, fmt.Errorf("service: block side applies to mesh/torus algorithms only")
	}
	switch s.Indexing {
	case "":
		s.Indexing = IndexingNone
	case IndexingNone:
	default:
		return s, fmt.Errorf("service: indexing %q has no meaning on the clique", s.Indexing)
	}
	switch s.Perm {
	case "":
		s.Perm = "random"
	case "random":
	default:
		return s, fmt.Errorf("service: clique perm %q (the destination patterns are mesh notions; the clique workload is a random k-relation)", s.Perm)
	}
	return s, nil
}

// admit enforces the resource ceilings on a canonical spec. They protect
// a shared server, not the meaning of a spec, so Service.Submit runs
// admit after Canonicalize while cmd/meshsort runs larger specs.
func admit(s JobSpec) error {
	if s.Topology == TopologyClique {
		if s.N > MaxCliqueNodes {
			return fmt.Errorf("service: clique size n=%d out of range [2,%d]", s.N, MaxCliqueNodes)
		}
		if s.K > MaxCliqueK {
			return fmt.Errorf("service: clique relation k=%d out of range [1,%d]", s.K, MaxCliqueK)
		}
		return nil
	}
	if s.N > MaxSide {
		return fmt.Errorf("service: side n=%d out of range [2,%d]", s.N, MaxSide)
	}
	n := s.Shape().N()
	if n > MaxProcessors {
		return fmt.Errorf("service: n^d = %d^%d exceeds the %d-processor ceiling", s.N, s.D, MaxProcessors)
	}
	if s.K > MaxPackets/n {
		return fmt.Errorf("service: k=%d out of range (k*N must be in [1,%d])", s.K, MaxPackets)
	}
	if s.Alg != AlgTraffic {
		return nil
	}
	// Canonical DSL strings: they parse.
	ld, _ := traffic.ParseLoad(s.Load)
	sc, _ := traffic.ParseSchedule(s.Inject)
	// A node sends at most one packet per demand slot, so total packets
	// are bounded by n times the per-node send multiplicity (1 for the
	// 1-1 family, k resp. ℓ otherwise).
	per := 1
	switch ld.Demand {
	case traffic.KRelation:
		per = ld.K
	case traffic.LKRelation:
		per = ld.L
	}
	if per > MaxPackets/n {
		return fmt.Errorf("service: load %q injects up to %d packets, over the %d ceiling", s.Load, int64(per)*int64(n), MaxPackets)
	}
	horizon := int64(0)
	switch sc.Arrival {
	case traffic.Window:
		horizon = int64(sc.Span)
	case traffic.Trickle:
		horizon = int64(float64(per*n-1) / sc.Rate)
	}
	if horizon > MaxInjectHorizon {
		return fmt.Errorf("service: inject %q schedules arrivals out to step %d, over the %d-step horizon", s.Inject, horizon, MaxInjectHorizon)
	}
	return nil
}

// DefaultBlockSide is the block side a spec with b=0 runs on: 4 when it
// divides n, else n/2.
func DefaultBlockSide(n int) int {
	if n%4 == 0 {
		return 4
	}
	return n / 2
}

// FaultPlan builds the spec's seeded random fault plan, or returns nil
// for a perfect network (faults=0).
func (s JobSpec) FaultPlan() *engine.FaultPlan {
	if s.Faults <= 0 {
		return nil
	}
	if s.Topology == TopologyClique {
		return engine.RandomFaultPlanTopo(s.Topo(), s.Faults, s.FaultSeed)
	}
	return engine.RandomFaultPlan(s.Shape(), s.Faults, s.FaultSeed)
}

// Shape returns the network shape of a mesh or torus spec. It is
// meaningless for clique specs (the clique is not a grid.Shape);
// topology-generic callers use Topo instead.
func (s JobSpec) Shape() grid.Shape {
	if s.Torus || s.Alg == AlgTorusSort {
		return grid.NewTorus(s.D, s.N)
	}
	return grid.New(s.D, s.N)
}

// Topo returns the network topology the spec runs on: runner leasing
// and the CLI's runner both build from it.
func (s JobSpec) Topo() topo.Topology {
	if s.Topology == TopologyClique || s.Alg == AlgCliqueRoute {
		return topo.NewClique(s.N)
	}
	return topo.FromShape(s.Shape())
}

// ShapeKey is the runner-leasing key: jobs with equal ShapeKeys can
// share a warm runner with nothing but a Reset in between.
func (s JobSpec) ShapeKey() string {
	if s.Topology == TopologyClique || s.Alg == AlgCliqueRoute {
		return fmt.Sprintf("clique/%d", s.N)
	}
	kind := TopologyMesh
	if s.Torus || s.Alg == AlgTorusSort {
		kind = TopologyTorus
	}
	return fmt.Sprintf("%s/%d/%d", kind, s.D, s.N)
}

// Key returns the cache key: a sha256 over the canonical field values.
// The spec must already be canonical (Key on a non-canonical spec would
// hash defaults as distinct from their explicit forms).
func (s JobSpec) Key() string {
	key := fmt.Sprintf(
		"alg=%s topo=%s d=%d n=%d torus=%t b=%d k=%d idx=%s seed=%d perm=%s load=%s inject=%s target=%d faults=%g fseed=%d patience=%d",
		s.Alg, s.Topology, s.D, s.N, s.Torus, s.B, s.K, s.Indexing, s.Seed, s.Perm, s.Load, s.Inject, s.Target, s.Faults, s.FaultSeed, s.Patience)
	// Appended only when set, so the keys of specs without them (and the
	// journals and caches holding those keys) stay as they were.
	if s.RealLocalSort {
		key += " real"
	}
	if s.AltEstimator {
		key += " alt"
	}
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

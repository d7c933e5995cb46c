// Package engine implements the synchronous multi-packet network model
// of the paper: processors operating in lock-step, each holding a small
// number of packets, each able to transmit one packet per directed link
// per step. The network's wiring is a topo.Topology — the paper's
// N = n^d mesh/torus is the default and the performance target, and the
// same step loop drives any topology satisfying the link-identity
// contract (the congested clique ships as the first non-mesh instance).
//
// The engine separates what the machine does (move packets along links
// under a routing policy, one per link per step) from what the algorithms
// decide (destinations, routing classes, local rearrangements). Global
// routing phases are simulated step-accurately; local "oracle" phases
// (block-local sorts, whose o(n) cost the paper treats as a black box)
// rearrange held packets atomically and advance the clock by a charged
// cost (see internal/core).
//
// # Topologies
//
// A Net is built over a topo.Topology (New takes the historical
// grid.Shape and wraps it; NewNet takes any topology). The step loop
// needs exactly the interface's link contract: every processor exposes
// a uniform window of link ids, Neighbor maps a directed link to its
// receiver, and Dist is exact. The mesh keeps its precomputed-stride
// arithmetic as an inline fast path — the step kernel recognizes
// *topo.Mesh by type and performs no interface calls on the transit
// path — while other topologies route through the interface; both paths
// are covered by the zero-allocation guards. CheckTopology enforces the
// data-plane capacity limits (link ids fit an int16, rank*links fits an
// int32).
//
// # One step kernel
//
// Each simulated step is one pass of a single kernel (part.pass) over
// the processors holding moving packets, in ascending rank order. At
// each processor, every packet
// that was moving when the step began requests the link the Policy
// names (the answer is cached in the queue entry — see Policy purity
// below); each link is granted to the highest-priority requester
// (farthest-to-go first, ties to the lowest id — the paper's contention
// rule); and each winner is appended straight to its receiver's queue.
//
// Synchronous semantics come from a per-processor eligibility
// watermark: a packet that arrives during the step sits above its
// receiver's watermark and cannot contest a link until the next step,
// so no packet moves twice in one step and every contest sees exactly
// the queue its processor held when the step began. Contests are
// decided by a strict total order, so the outcome does not depend on
// the pass order. Route returns the same results and placements on
// every run and at every part count (below), and
// FuzzEngineMatchesReference holds the kernel to a naive map-and-sort
// simulator of the model (reference_test.go) at 1, 2 and 3 parts.
//
// Every mode runs through the same kernel. Fault checks, patience
// stranding and load counting are per-processor passes guarded by flags
// tested outside the hop loop; detouring policies and non-mesh
// receivers cost one predictable branch per hop; topologies wider than
// 64 links contest their links in 64-link windows.
//
// Packets in flight are represented by 16-byte pointer-free queue
// entries (id, destination, remaining distance, class, cached link);
// the cold identity fields live in a packet arena indexed by id, and
// patience/overshoot accounting lives in a side slab touched only on
// stranding and completion paths. The hot step loop therefore streams
// over compact contiguous memory. See DESIGN.md for the measurements
// behind this layout.
//
// # Active-set tracking and parallelism
//
// A moving-queue bitmap (one bit per processor) steers the pass
// straight to processors with packets in transit: late in a phase, when
// most of the n^d processors are idle, a step touches only the few
// processors where packets remain instead of scanning the whole
// network. Same-step activations park in a second bitmap until the pass
// ends, and receivers above their sender are sampled for the occupancy
// high-water mark by an end-of-step sweep over a third.
//
// # Partitioned steps
//
// Because a processor's moves depend only on its own queue at the start
// of the step, a step is parallel by processor. With a multi-worker
// RouteOpts.Pool (pipeline.Runner passes the pool it holds for local
// phases), Route splits the rank space into one contiguous part per
// worker, aligned to 64-rank bitmap words and capped by the word count.
// Each part runs the same kernel over its own words, owning those words
// of every bitmap and its processors' queues. A winner whose receiver
// lies in its own part is pushed directly, as in a one-part pass; one
// bound for another part goes to that part's outbox. After the pass
// barrier each part files what it was sent, merges its deferred
// activations and samples its receivers' occupancy; counters, strands,
// the lowest-rank error and per-part sojourn histograms are then merged
// on the caller. Filing puts a lower part's entries in front of the
// step's own appends (per-processor step stamps mark where those
// begin), so every queue and held list comes out in exactly the order a
// one-part pass produces: later phases that read held order — a block's
// shearsort counts its rounds from it — see no difference.
//
// A step runs as one part on the caller's goroutine when the pool has at
// most one worker or fewer than partMinActive packets are active at step
// start, where the pool's two barrier crossings per step would cost more
// than the split saves (EXPERIMENTS.md, "Partitioned step kernel").
// Independent networks may still route concurrently, sharing policies
// and fault plans; the service runs one network per runner.
//
// # Exact vs. sampled statistics
//
// All statistics on RouteResult are exact, not sampled: Steps,
// Delivered, Hops, MaxDist and the overshoot aggregates are maintained
// per event. MaxQueue is exact too, but subtly so: per-processor
// occupancy only grows at activation or on receiving, so sampling every
// processor once at activation and every receiver once its state for
// the step is final captures the true high-water mark. Link-load
// counters (SetCountLoads) are exact per traversal but cover only the
// phases routed while counting was enabled. The wall-clock throughput
// counters (Elapsed, WorkerBusy — kernel time, averaged over the parts
// of partitioned steps — and the derived StepsPerSec/WorkerUtilization)
// measure the host machine, vary run to run, and are excluded from the
// determinism guarantee.
//
// # Policy purity
//
// NextLink must be a pure function of (rank, dst, class) with no side
// effects and no dependence on call order: the engine caches its answer
// in the queue entry and re-asks only when the packet moves (a stalled
// packet's cached link is, by purity, still the link it wants), and one
// policy value may serve several networks routing concurrently. It must
// also be monotone — every requested move reduces the packet's distance
// to its destination — unless it implements DetourPolicy, which
// switches the engine to recomputing distances after every hop. It must
// never route off a mesh boundary. The engine checks monotonicity and
// boundary legality and converts violations — and any panic escaping
// NextLink — into an error returned from Route: a buggy policy fails
// one run, never the process.
//
// # Fault model and graceful degradation
//
// A FaultPlan injects failures into a phase (RouteOpts.Faults):
// permanent link failures, transient link outages over clock intervals,
// and dead processors (all incident edges down). Faults live on physical
// edges — failing a link takes down both directed sides — and are
// enforced at grant time: a packet whose requested link is down simply
// does not move that step, so waiting is the automatic response to a
// transient outage. Plans are immutable during routing and every
// constructor is deterministic, so faulted runs are reproducible and a
// plan may be shared by networks routing concurrently. Policies that want to route around failures
// query PermDown (permanent faults only — transient outages stay
// invisible, keeping policies pure) and typically implement
// DetourPolicy.
//
// Degradation is layered so a blocked phase always terminates in a
// diagnosable state rather than spinning to the MaxSteps cliff:
//
//   - Patience (per packet): a packet that goes Patience consecutive
//     steps without a new personal-best distance — whether parked or
//     circling a blocked region — is parked in the held queue as
//     stranded and reported in RouteResult.Stranded with diagnostics
//     (rank, remaining distance, wanted and blocked links). Stranding is
//     not an error: the phase continues, and a later phase re-activates
//     stranded packets automatically. Route returns a nil error when
//     every packet is delivered or stranded.
//   - NoProgress (per phase): if the total remaining distance over all
//     moving packets stops reaching new minima for NoProgress steps, the
//     phase aborts with a *DegradedError carrying a quiescent snapshot
//     of the stuck packets (RouteResult.Stuck). Stranding lowers the
//     total, so with patience enabled the watchdog only fires if
//     degradation itself stalls. The MaxSteps abort returns the same
//     error shape, alongside the partial RouteResult.
//   - Paranoid (per step): an opt-in invariant checker — packet
//     conservation, no step-local state left across a step, held
//     packets at their destination or explicitly stranded, distance
//     budgets equal to true distances — for debugging policies and the
//     engine itself.
//
// After a degraded abort the network is quiescent and conserved (no
// packet mid-link), so callers can inspect it, repair the plan, and
// route again.
package engine

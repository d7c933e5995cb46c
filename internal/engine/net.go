package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
	"unsafe"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

// Policy decides, for a packet at a given processor, which outgoing link
// the packet wants next. Links are encoded as dim*2 + dirBit where dirBit
// 0 means direction -1 and dirBit 1 means direction +1. A return value of
// -1 means the packet does not want to move this step.
//
// The packet is presented as its routing-relevant state — the current
// destination rank and the dimension-order class — rather than as a
// *Packet: the step loop keeps that state in its queue entries (see
// pktRef) so it never drags the cold Packet record through the cache,
// and the narrow signature keeps policies honest about what they may
// depend on.
//
// Policies must be pure functions of (rank, dst, class): the engine
// caches their answer in the packet's queue entry and re-asks only when
// the packet moves, and a policy value may be shared by networks routing
// concurrently on different goroutines, so they may cache nothing and
// must touch no shared state. They
// must also be monotone: every move they request must reduce the
// packet's distance to its destination by one (all dimension-order
// greedy variants qualify) — unless the policy implements DetourPolicy
// and opts into detour accounting. The engine checks monotonicity and
// mesh-boundary legality; a violation aborts the phase with an error
// returned from Route (never a process-killing panic), since it
// indicates an algorithm bug rather than a runtime condition.
type Policy interface {
	NextLink(rank, dst, class int) int
}

// DetourPolicy is implemented by policies that may request moves that do
// not reduce a packet's distance to its destination — fault-aware
// policies routing around failed links. When Detours reports true the
// engine recomputes each packet's remaining distance after every hop
// instead of decrementing a budget, and the monotonicity check is off.
// Detouring policies should be used together with the patience budget
// and the no-progress watchdog (RouteOpts), which turn any livelock they
// could produce into stranded packets or a diagnosed abort.
type DetourPolicy interface {
	Policy
	Detours() bool
}

// MeshGreedy is implemented by policies certifying that their NextLink
// is exactly the dimension-order greedy scheme on the returned mesh
// shape: scan dimensions class, class+1, ..., class-1 (mod d), and on
// the first mismatched coordinate move toward the destination (shorter
// way around each torus ring, ties toward +1). When the shape matches
// the network's, the step loop computes next links inline from its own
// cached stride tables instead of paying an interface call per hop —
// on the n=32 sorting rung the virtual NextLink was ~8% of wall time.
// The paranoid checker still cross-checks cached links against the
// policy's own NextLink, so a certification that does not match the
// policy's behavior is caught, not silently trusted.
type MeshGreedy interface {
	GreedyShape() (grid.Shape, bool)
}

// LinkFor encodes a (dimension, direction) pair as a link id.
func LinkFor(dim, dir int) int {
	if dir > 0 {
		return dim*2 + 1
	}
	return dim * 2
}

// LinkDim returns the dimension of a link id.
func LinkDim(link int) int { return link / 2 }

// LinkDir returns the direction (+1 or -1) of a link id.
func LinkDir(link int) int {
	if link%2 == 1 {
		return 1
	}
	return -1
}

// noPacket marks a consumed queue entry. Queue entries hold int32 arena
// indices (== packet ids), never pointers: the hot path moves 4-byte
// integers through contiguous memory and the garbage collector sees no
// pointers to trace.
const noPacket int32 = -1

// MaxPackets is the number of packet ids a network can hand out between
// Resets. Ids are int32 arena indices; the bound (over a billion packets)
// sits well inside that range, and a load that size exhausts memory long
// before it exhausts id space. pipeline.InjectKeys rejects larger loads
// up front; NewPacket panics past the bound.
const MaxPackets = 1 << 30

// Packet arena chunking: packets live in fixed-size slabs so that the
// *Packet handles NewPacket returns stay valid while the arena grows
// (a flat slice would move on append and dangle every retained pointer).
const (
	pktChunkShift = 12
	pktChunkSize  = 1 << pktChunkShift
	pktChunkMask  = pktChunkSize - 1
)

// pktRef is a moving-queue entry: the packet's id together with the
// routing fields the step loop needs on every step. Carrying the hot
// fields inside the queue entry — instead of in a slab indexed by packet
// id — is what keeps the million-processor step loop off the memory
// wall: queue entries are read, forwarded and rebuilt sequentially,
// where an id-indexed lookup would take one cache miss per packet per
// step (measured at ~40% of the whole n=128 rung). The struct is 16
// bytes and pointer-free.
//
// link caches the policy's answer for the packet's current position.
// NextLink is contractually a pure function of (rank, dst, class) — see
// the Policy docs — so the answer only changes when the packet moves:
// the sender computes the receiver-side link once at forward time (with
// the entry warm in its cache) and the request loop just reads it,
// instead of paying a virtual NextLink call per moving packet per step.
// Freshly activated entries carry linkUnknown and are resolved on their
// first request.
type pktRef struct {
	id    int32 // arena index; noPacket marks a consumed entry
	dst   int32 // destination rank
	togo  int32 // remaining distance to dst
	class int16 // dimension-order class (< dim, so int16 is ample)
	link  int16 // cached NextLink result at the current rank; -1 = no move, linkUnknown = unresolved
}

// linkUnknown marks a queue entry whose cached link has not been
// resolved for its current position yet (only freshly activated
// entries; forwarded entries arrive pre-resolved by the sender).
const linkUnknown int16 = -2

// Layout of the per-packet accounting record (Net.aux), indexed by
// packet id. These fields are off the transit fast path by design: the
// patience counters are only touched when stranding is enabled, the
// activation stamps only on the delivery-completion hop — so their
// scattered per-id access happens at most once per packet per phase.
const (
	auxBest   = iota // smallest togo reached this phase (patience accounting)
	auxStall         // send-phase evaluations since best last improved
	auxBorn          // clock at activation (overshoot accounting)
	auxBornD         // distance at activation
	auxStride        // accounting-record width
)

type proc struct {
	moving []pktRef // packets in transit through this processor, hot fields inline
	held   []int32  // arena indices of packets at rest here

	// fresh is the step kernel's eligibility watermark: when its high half
	// equals the current clock, the queue suffix moving[fresh&0xffffffff:]
	// arrived during the current step and must not move again until the
	// next one. A stale stamp means the whole queue is eligible, so the
	// watermark never needs an end-of-step reset — phase activation
	// zeroes it only because the clock restarts between problems. It
	// sits between the queue headers so the kernel's receiver access
	// touches a single cache line. See stepState.step.
	fresh uint64

	// heldAt is the same stamp for the held list: when its high half
	// equals the current clock, held[heldAt&0xffffffff:] was appended
	// during the current step. A partitioned step needs it to file the
	// deliveries a lower part sent here in front of this step's
	// own-part appends, which keeps every held list in the order a
	// one-part step produces (see part.finish).
	heldAt uint64
}

// A proc is exactly one cache line (both constants fail to compile
// otherwise): the step loop touches one random proc per hop (the
// receiver), and a 64-byte stride keeps that touch to a single line.
const (
	_ uintptr = 64 - unsafe.Sizeof(proc{})
	_ uintptr = unsafe.Sizeof(proc{}) - 64
)

// Initial per-processor queue capacities carved from the rank-ordered
// slabs of buildProcs, and the network size cap above which the carve is
// skipped (at 1M processors the slabs reach ~144 bytes per rank, ~150 MB
// — past that, sparse workloads would pay more in footprint than dense
// ones gain in locality). The moving window holds the typical congestion
// of a sorting run's routing phases; the held window covers packets at
// rest up to k = 4 without spilling.
const (
	movSlabCap        = 8
	heldSlabCap       = 4
	queueSlabMaxProcs = 1 << 20
)

// Net is a synchronous network holding packets, routing on any
// topo.Topology — the mesh/torus of the source paper as the inline fast
// path, everything else through the interface. Create one with New (a
// mesh/torus shape) or NewNet (any topology), place packets with Inject
// or SetHeld, and run routing phases with Route. Reset/ResetTopo reuses
// a network (including its packet arena and all per-processor queue
// storage) for a fresh problem, which is how steady-state routing
// reaches zero heap allocations per step: after a warm-up run every
// buffer the step loop touches already exists.
//
// Hot packet state (dst, class, togo) rides inside the moving-queue
// entries themselves (see pktRef), so the step loop streams
// through memory; only the accounting record (patience counters,
// activation stamps — Net.aux, indexed by packet id) is looked up out
// of line, and only on strand and delivery-completion paths. The cold
// Packet structs (keys, tags, pair links) stay untouched until an
// algorithm phase asks for them.
type Net struct {
	// Topo is the network's topology. The step loop special-cases
	// *topo.Mesh with inline stride arithmetic (no interface calls on the
	// transit path); other topologies route through the interface.
	Topo topo.Topology

	// Shape is the grid shape behind a mesh/torus topology, kept public
	// because every mesh-only consumer (the sorting algorithms, indexing
	// schemes, experiment code) reads coordinate arithmetic off it. It is
	// the zero Shape when Topo is not a mesh — mesh-only callers never
	// see that, and topology-generic code must use Topo.
	Shape grid.Shape

	// links is Topo.Links(): the per-processor link-id window width (2d
	// on meshes).
	links int

	procs  []proc
	chunks [][]Packet // packet arena: chunk i holds ids [i<<pktChunkShift, (i+1)<<pktChunkShift)
	clock  int
	nextID int

	// aux is the per-packet accounting record slab (offsets
	// auxBest..auxBornD above), grown in lockstep with the arena; see the
	// aux* constants for why it stays out of the queue entries.
	aux []int32

	// MaxQueue is the high-water mark of packets co-resident at a single
	// processor (moving + held) observed during routing phases.
	MaxQueue int

	loads []int64 // rank*2d + link -> traversals; nil when counting is off

	scratch *stepState // reusable per-phase routing state (lazily built, survives phases and Reset)

	// partMin, when positive, replaces partMinActive as the active-packet
	// count from which steps run partitioned. Tests lower it so that
	// small networks exercise the partitioned kernel; set it before the
	// first Route.
	partMin int
}

// CheckCapacity reports whether a shape is well-formed (see
// grid.Shape.Validate — a hand-built degenerate literal would silently
// mis-stride every coordinate computation) and fits the engine's int32
// arena indexing: processor ranks are stored in int32 packet-state
// slabs and the link-indexed load counters hold N*2d slots, so both N
// and N*2d must stay within int32 range. New and Reset enforce this
// with a panic (mirroring grid.New's overflow rejection); callers that
// take shapes from external input — the service layer, command-line
// tools — should call CheckCapacity first and surface the error.
func CheckCapacity(s grid.Shape) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	n := int64(s.N())
	slots := n * int64(2*s.Dim)
	if n > math.MaxInt32 || slots > math.MaxInt32 {
		return fmt.Errorf("engine: shape %v exceeds int32 arena capacity (N=%d, out slots=%d, limit %d)",
			s, n, slots, math.MaxInt32)
	}
	return nil
}

// CheckTopology is CheckCapacity for arbitrary topologies: N and the
// N*Links slot slab must fit int32 indexing, and the link-id window must
// fit the int16 cached-link field of the queue entries (pktRef.link,
// with -1 and linkUnknown reserved) — a clique is therefore bounded at
// 32768 nodes.
func CheckTopology(t topo.Topology) error {
	n := int64(t.N())
	links := int64(t.Links())
	if links < 1 {
		return fmt.Errorf("engine: topology %v has no links", t)
	}
	if links > math.MaxInt16 {
		return fmt.Errorf("engine: topology %v has %d links per processor, exceeding the int16 link-id space (%d)",
			t, links, math.MaxInt16)
	}
	if n > math.MaxInt32 || n*links > math.MaxInt32 {
		return fmt.Errorf("engine: topology %v exceeds int32 arena capacity (N=%d, out slots=%d, limit %d)",
			t, n, n*links, math.MaxInt32)
	}
	return nil
}

// New returns an empty network on the mesh/torus of the given shape. It
// panics on a degenerate shape or one that exceeds the engine's int32
// arena capacity (see CheckCapacity).
func New(s grid.Shape) *Net {
	if err := CheckCapacity(s); err != nil {
		panic(err.Error())
	}
	return NewNet(topo.FromShape(s))
}

// NewNet returns an empty network on the given topology. It panics if
// the topology exceeds the engine's capacity (see CheckTopology).
func NewNet(t topo.Topology) *Net {
	if err := CheckTopology(t); err != nil {
		panic(err.Error())
	}
	n := &Net{Topo: t, links: t.Links()}
	if s, ok := topo.MeshShape(t); ok {
		n.Shape = s
	}
	n.buildProcs()
	return n
}

// buildProcs (re)creates the per-processor queues for the current
// topology. Their initial storage is carved from slabs windowed by rank,
// so it is only valid for the processor count it was built for — see
// ResetTopo.
func (n *Net) buildProcs() {
	N := n.Topo.N()
	n.procs = make([]proc, N)
	if N <= queueSlabMaxProcs {
		// Carve every processor's initial moving-queue and held-list
		// capacity out of two rank-ordered contiguous slabs. The step
		// loop's receiver accesses walk ranks at fixed strides (r ± div on
		// a mesh), so rank-ordered queue storage turns the append target
		// into a hardware-prefetchable stream — individually heap-allocated
		// backing arrays land wherever the allocator put them and defeat
		// it. Queues that outgrow their slab window fall back to the heap
		// via ordinary append growth, and only those lose the locality.
		// Very large networks skip the carve: sparse workloads there touch
		// few processors, and an 80-byte-per-rank upfront slab would
		// dominate their footprint.
		movSlab := make([]pktRef, N*movSlabCap)
		heldSlab := make([]int32, N*heldSlabCap)
		for i := range n.procs {
			n.procs[i].moving = movSlab[i*movSlabCap : i*movSlabCap : (i+1)*movSlabCap]
			n.procs[i].held = heldSlab[i*heldSlabCap : i*heldSlabCap : (i+1)*heldSlabCap]
		}
	}
}

// N returns the number of processors.
func (n *Net) N() int { return len(n.procs) }

// Links returns the per-processor link-id window width (2d on meshes).
func (n *Net) Links() int { return n.links }

// Reset returns the network to the empty state for a new problem,
// reusing its storage: the packet arena and its hot-state slabs keep
// their chunks (ids restart at 0 and overwrite in place), and
// per-processor queues keep their learned capacities. When the new
// shape changes the processor count or the links-per-processor, the
// per-processor queues and the step scratch are rebuilt from scratch —
// the activity bitmaps and the queues' slab windows are sized by N and
// the stride tables by d, so reusing them across such a change would
// alias the state of different processors. (Since N = side^dim, an
// unchanged (N, dim) pair pins the side length too, so no geometry
// survives the guard unnoticed; the torus flag may flip freely — no
// torus-dependent state is cached.)
//
// All packets vanish: ids and *Packet handles from before the Reset are
// dead. Stale per-packet state from the previous problem is unreachable
// by construction — hot routing state lives in the moving queues (all
// truncated here) and activation rewrites the accounting records of
// every id before a phase reads them. Load counting is switched off
// (re-enable with SetCountLoads). Reset panics if the new shape is
// degenerate or exceeds the int32 arena capacity (see CheckCapacity).
func (n *Net) Reset(s grid.Shape) {
	if err := CheckCapacity(s); err != nil {
		panic(err.Error())
	}
	// Reuse the current topology when the shape is unchanged: warm
	// same-shape resets are the steady state of the runner pool, and
	// rebuilding the stride tables would put allocations on that path.
	if m, ok := n.Topo.(*topo.Mesh); ok && m.Shape() == s {
		n.ResetTopo(m)
		return
	}
	n.ResetTopo(topo.FromShape(s))
}

// ResetTopo is Reset for an arbitrary topology. Storage survives exactly
// when the geometries match (topo.SameGeometry: same layout contract,
// same stride tables); otherwise the per-processor queues, slot slabs,
// and step scratch are rebuilt. It panics if the topology exceeds the
// engine's capacity (see CheckTopology).
func (n *Net) ResetTopo(t topo.Topology) {
	if err := CheckTopology(t); err != nil {
		panic(err.Error())
	}
	if !topo.SameGeometry(n.Topo, t) {
		n.Topo = t
		n.links = t.Links()
		n.buildProcs()
		n.scratch = nil // bitmap sizes and dimension strides are stale
	} else {
		n.Topo = t
		for i := range n.procs {
			pr := &n.procs[i]
			pr.moving = pr.moving[:0]
			pr.held = pr.held[:0]
		}
	}
	if s, ok := topo.MeshShape(t); ok {
		n.Shape = s
	} else {
		n.Shape = grid.Shape{}
	}
	n.clock = 0
	n.nextID = 0
	n.MaxQueue = 0
	n.loads = nil
	if n.scratch != nil {
		n.scratch.markDirty()
	}
}

// SetCountLoads enables or disables per-link traversal counting (LinkLoad,
// LoadProfile); off by default because the counters add a write per hop.
// The counters are allocated immediately, so counting covers exactly the
// phases routed between SetCountLoads(true) and SetCountLoads(false) —
// enabling after a phase has already run does not retroactively count it.
// Disabling discards the counters.
func (n *Net) SetCountLoads(on bool) {
	if !on {
		n.loads = nil
		return
	}
	if n.loads == nil {
		n.loads = make([]int64, len(n.procs)*n.links)
	}
}

// CountingLoads reports whether per-link traversal counting is enabled.
func (n *Net) CountingLoads() bool { return n.loads != nil }

// LinkLoad returns the number of packets that traversed the directed
// link of the given processor while counting was enabled. It panics if
// counting was never enabled (a silent zero would be misleading).
func (n *Net) LinkLoad(rank, link int) int64 {
	if n.loads == nil {
		panic("engine: LinkLoad without SetCountLoads(true)")
	}
	return n.loads[rank*n.links+link]
}

// LoadProfile summarizes link congestion: total traversals, the maximum
// over directed links, and per-dimension totals. ByDim decomposes by the
// mesh link encoding and is nil on non-mesh topologies, whose link ids
// carry no dimension structure.
type LoadProfile struct {
	Total int64
	Max   int64
	ByDim []int64
}

// LoadProfile computes the congestion summary. It panics if counting was
// never enabled (see SetCountLoads).
func (n *Net) LoadProfile() LoadProfile {
	if n.loads == nil {
		panic("engine: LoadProfile without SetCountLoads(true)")
	}
	var p LoadProfile
	if n.Shape.Dim > 0 {
		p.ByDim = make([]int64, n.Shape.Dim)
	}
	links := n.links
	for i, v := range n.loads {
		p.Total += v
		if v > p.Max {
			p.Max = v
		}
		if p.ByDim != nil {
			p.ByDim[(i%links)/2] += v
		}
	}
	return p
}

// Clock returns the current simulated time in steps.
func (n *Net) Clock() int { return n.clock }

// AdvanceClock charges cost steps to the clock without moving packets.
// Oracle phases (block-local sorts) use this to account for their o(n)
// running time.
func (n *Net) AdvanceClock(cost int) {
	if cost < 0 {
		panic("engine: negative clock advance")
	}
	n.clock += cost
}

// growSlab extends the accounting-record slab by one packet chunk's
// worth of records, zero-filled, reusing capacity when a Reset already
// grew it.
func growSlab(s []int32) []int32 {
	const ext = pktChunkSize * auxStride
	if cap(s) >= len(s)+ext {
		s = s[:len(s)+ext]
		tail := s[len(s)-ext:]
		for i := range tail {
			tail[i] = 0
		}
		return s
	}
	ns := make([]int32, len(s)+ext)
	copy(ns, s)
	return ns
}

// NewPacket allocates a packet in the network's arena with a fresh id
// and returns a handle to it. The handle stays valid (the arena grows in
// pointer-stable chunks) until the network is Reset. The packet's arena
// index equals its ID; Packet converts back. The packet is not placed in
// the network; use Inject or SetHeld.
//
// Packet ids are int32 arena indices with bit 30 reserved for the
// in-flight delivery flag (pktDone); NewPacket panics if a problem
// creates maxPackets or more packets (pipeline.InjectKeys rejects such
// loads with an error before any packet is built).
func (n *Net) NewPacket(key int64, src int) *Packet {
	id := n.nextID
	if id >= MaxPackets {
		panic(fmt.Sprintf("engine: packet id %d exceeds the arena index space (%d ids)", id, MaxPackets))
	}
	n.nextID++
	ci := id >> pktChunkShift
	if ci == len(n.chunks) {
		n.chunks = append(n.chunks, make([]Packet, pktChunkSize))
	}
	if id*auxStride >= len(n.aux) {
		n.aux = growSlab(n.aux)
	}
	p := &n.chunks[ci][id&pktChunkMask]
	*p = Packet{ID: id, Key: key, Src: src, Dst: src}
	return p
}

// Packet returns the arena packet with the given id (ids are handed out
// by NewPacket and stored in the Held queues). The pointer is stable
// until Reset.
func (n *Net) Packet(id int32) *Packet {
	return &n.chunks[id>>pktChunkShift][id&pktChunkMask]
}

// pkt is the internal hot-path accessor (identical to Packet; kept
// separate so the exported name can afford documentation and the hot
// loops read tersely).
func (n *Net) pkt(id int32) *Packet {
	return &n.chunks[id>>pktChunkShift][id&pktChunkMask]
}

// Inject places packets at their Src processors as held packets.
func (n *Net) Inject(ps []*Packet) {
	for _, p := range ps {
		pr := &n.procs[p.Src]
		pr.held = append(pr.held, int32(p.ID))
	}
}

// Held returns the arena indices of the packets at rest at the given
// processor (resolve them with Packet). The returned slice is owned by
// the network; callers may reorder it in place but must use SetHeld or
// ClearHeld to change its length.
func (n *Net) Held(rank int) []int32 { return n.procs[rank].held }

// SetHeld replaces the held packets of a processor. Only legal between
// routing phases (oracle rearrangements). The ids must come from this
// network's arena.
func (n *Net) SetHeld(rank int, ids []int32) { n.procs[rank].held = ids }

// ClearHeld empties the held queue of a processor while keeping its
// storage for reuse (oracle phases gather-and-scatter blocks without
// reallocating queue backing every phase).
func (n *Net) ClearHeld(rank int) { n.procs[rank].held = n.procs[rank].held[:0] }

// TotalPackets counts all packets currently in the network.
func (n *Net) TotalPackets() int {
	total := 0
	for i := range n.procs {
		total += len(n.procs[i].moving) + len(n.procs[i].held)
	}
	return total
}

// ForEachHeld calls fn for every held packet, in processor rank order.
func (n *Net) ForEachHeld(fn func(rank int, p *Packet)) {
	for r := range n.procs {
		for _, id := range n.procs[r].held {
			fn(r, n.pkt(id))
		}
	}
}

// Arrivals is a timed-injection plan for a routing phase: packets that
// are born mid-run instead of at phase start. The packets are
// pre-created with NewPacket but NOT Injected — the phase's activation
// scan must not see them — and each becomes active when the simulated
// clock reaches its stamp, so its first possible move is the following
// step and its sojourn time is measured from the stamp. Stamps are
// absolute network clocks (Net.Clock), must be nondecreasing, and a
// stamp already in the past when Route starts activates immediately.
//
// Activation runs between steps, so the queue state entering every step
// is a function of the plan and the network alone. Route consumes the plan
// through an internal cursor; Rewind re-arms a fully- or
// partially-consumed plan for reuse.
type Arrivals struct {
	// Clocks holds the activation clock of each arrival. Nondecreasing;
	// Route rejects an out-of-order plan with an error.
	Clocks []int32
	// IDs holds the arena packet ids (Packet.ID), parallel to Clocks.
	IDs []int32

	cursor int
}

// Add appends one arrival to the plan.
func (a *Arrivals) Add(clock int32, p *Packet) {
	a.Clocks = append(a.Clocks, clock)
	a.IDs = append(a.IDs, int32(p.ID))
}

// Len returns the total number of arrivals in the plan.
func (a *Arrivals) Len() int { return len(a.Clocks) }

// Pending returns the number of arrivals not yet activated (0 for a nil
// plan).
func (a *Arrivals) Pending() int {
	if a == nil {
		return 0
	}
	return len(a.Clocks) - a.cursor
}

// Rewind resets the consumption cursor so the plan can drive another
// phase. The packet ids must still be valid in the network's arena
// (Reset discards the arena; rebuild the plan after one).
func (a *Arrivals) Rewind() { a.cursor = 0 }

// validate checks the plan's structural invariants from the cursor on.
func (a *Arrivals) validate() error {
	if len(a.Clocks) != len(a.IDs) {
		return fmt.Errorf("engine: arrivals plan has %d clocks but %d ids", len(a.Clocks), len(a.IDs))
	}
	for i := a.cursor + 1; i < len(a.Clocks); i++ {
		if a.Clocks[i] < a.Clocks[i-1] {
			return fmt.Errorf("engine: arrivals plan clocks not nondecreasing at index %d (%d after %d)", i, a.Clocks[i], a.Clocks[i-1])
		}
	}
	return nil
}

// RouteOpts configures a routing phase.
type RouteOpts struct {
	// MaxSteps aborts the phase with an error if exceeded; 0 means
	// 64*D + 1024, far beyond any correct phase of the implemented
	// algorithms.
	MaxSteps int
	// OnStep, if set, is called after every completed step with the
	// number of steps taken so far in this phase. It runs with the
	// network quiescent, so it may inspect state (e.g. Snapshot) but must
	// not modify it.
	OnStep func(step int)

	// Faults, if non-nil, injects the plan's failures into the phase: the
	// link contest consults the plan at grant time, and a packet whose
	// requested link is down simply does not move that step. The plan is
	// read-only during the phase, so one plan may serve networks routing
	// concurrently.
	Faults *FaultPlan

	// Patience is the graceful-degradation budget: a packet that goes
	// this many consecutive steps without reducing its best-yet distance
	// to its destination is parked as stranded (RouteResult.Stranded)
	// with full diagnostics, instead of spinning until MaxSteps. Waiting
	// out contention, a transient outage, or a detour all consume
	// patience; any step that sets a new best distance refunds it in
	// full. 0 means a default of 2*Diameter + 64 when Faults is set and
	// disabled otherwise; negative disables stranding entirely.
	Patience int

	// NoProgress is the livelock watchdog: if the total remaining
	// distance over all undelivered packets fails to reach a new minimum
	// for this many consecutive steps, the phase aborts with a
	// *DegradedError carrying a quiescent snapshot of the stuck packets
	// (RouteResult.Stuck). Stranding counts as progress, so with patience
	// enabled the watchdog only fires if degradation itself stalls. 0
	// means a default of max(4*Diameter + 64, 2*Patience); negative
	// disables the watchdog.
	NoProgress int

	// Paranoid runs the engine invariant checker after every step:
	// packet conservation, no step-local state left across a step,
	// every held packet delivered at its destination or explicitly
	// stranded, and every moving packet's distance budget equal to its
	// true distance. A violation aborts the phase with an
	// error. Costs a full network scan per step; off by default.
	Paranoid bool

	// Arrivals, if non-nil, schedules packets to be born mid-phase: each
	// activates when the simulated clock reaches its stamp (see Arrivals).
	// The step loop keeps running while arrivals are pending even when no
	// packet is currently moving, fast-forwarding the clock over idle gaps
	// (the skipped steps still count toward RouteResult.Steps — simulated
	// time passed). The default MaxSteps budget is extended past the last
	// stamp. Route consumes the plan; use Arrivals.Rewind to reuse it.
	Arrivals *Arrivals

	// Sojourn, if non-nil, accumulates each delivered packet's sojourn
	// time — delivery clock minus activation clock — into the
	// caller-owned histogram, and stamps its percentile summary on
	// RouteResult.Sojourn. The engine never resets the accumulator, so a
	// caller can aggregate latency across phases by passing the same
	// Hist.
	Sojourn *stats.Hist

	// Cancel, if non-nil, is the cooperative cancellation hook: the step
	// loop polls it (non-blocking) at every step boundary and, once the
	// channel is closed, stops with a partial RouteResult and a
	// *CancelledError (errors.Is(err, ErrCancelled)). The network is left
	// quiescent and consistent, but marked dirty like any abnormal end,
	// so the next phase on it pays one clean-sweep pass. Cancellation
	// latency is therefore bounded by one simulated step. Typically wired
	// to a context.Context's Done channel by the service layer.
	Cancel <-chan struct{}

	// Pool, if it has more than one worker, splits each step across its
	// workers by rank range (see Route); pipeline.Runner passes the pool
	// it already holds for local phases. nil runs every step on the
	// caller's goroutine. Results are identical either way.
	Pool *Pool
}

// RouteResult reports the outcome of a routing phase.
//
// The volume counters that scale with N·steps (Hops, SumOvershoot) are
// int64: a k-k load on a million-processor mesh moves billions of
// packets per phase, which would silently wrap a 32-bit int.
type RouteResult struct {
	Steps     int   // simulated steps the phase took
	Delivered int   // packets that moved (and arrived) during the phase
	Hops      int64 // total link traversals; equals the sum of activation distances for monotone policies
	MaxDist   int   // maximum source-destination distance over moved packets
	// MaxOvershoot is max over delivered packets of
	// (delivery time - activation distance); 0 means every packet was
	// delivered distance-optimally with no slack at all.
	MaxOvershoot int
	SumOvershoot int64 // for averaging
	MaxQueue     int   // high-water mark of per-processor occupancy this phase

	// Graceful degradation (see RouteOpts.Faults, Patience, NoProgress).
	// Stranded lists the packets parked after exhausting their patience
	// budget, in stranding order (step by step, by id within a step).
	// Stuck is the quiescent snapshot of packets still moving when the
	// phase aborted (watchdog or MaxSteps), in rank order; nil when the
	// phase ran to completion. Both are part of the determinism
	// guarantee.
	Stranded []PacketDiag
	Stuck    []PacketDiag

	// Sojourn summarizes per-packet sojourn times (delivery clock minus
	// activation clock) when RouteOpts.Sojourn requested latency
	// accounting; the zero summary otherwise. It reflects the caller's
	// accumulator as of the end of this phase, so a Hist shared across
	// phases yields cumulative percentiles.
	Sojourn stats.LatencySummary

	// Engine throughput counters (wall-clock, not simulated time; they
	// vary run to run and are excluded from determinism guarantees).
	Elapsed time.Duration // wall-clock duration of the step loop
	// WorkerBusy is the time spent inside the step kernel, averaged over
	// the parts of each step: a one-part step adds its kernel time, a
	// partitioned step the mean of its parts' pass-and-finish times. The
	// gap to Elapsed is therefore per-step bookkeeping plus, on
	// partitioned steps, part imbalance and barrier wait.
	WorkerBusy time.Duration
}

// AvgOvershoot returns the mean overshoot per delivered packet.
func (r RouteResult) AvgOvershoot() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.SumOvershoot) / float64(r.Delivered)
}

// StepsPerSec returns the simulated-steps-per-wall-second throughput of
// the phase.
func (r RouteResult) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// PacketsPerStep returns the mean number of packet moves per simulated
// step (link traversals per step).
func (r RouteResult) PacketsPerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Hops) / float64(r.Steps)
}

// WorkerUtilization returns the fraction of the phase's wall time spent
// inside the step kernel: WorkerBusy / Elapsed. Low values mean the phase
// was dominated by per-step bookkeeping (arrivals, stranding merges,
// watchdog, OnStep) or, on partitioned steps, by parts waiting at the
// barrier for the slowest one, rather than by packet movement.
func (r RouteResult) WorkerUtilization() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.WorkerBusy) / float64(r.Elapsed)
}

// Throughput bundles the derived wall-clock throughput figures of a
// phase. It is the single source of that math: per-phase stats embed it
// instead of re-deriving the ratios from the raw counters.
type Throughput struct {
	StepsPerSec    float64 // simulated steps per wall-second
	PacketsPerStep float64 // mean link traversals per simulated step
	WorkerUtil     float64 // step-kernel share of the phase's wall time, in [0,1]
}

// Throughput derives the phase's throughput figures from its counters.
func (r RouteResult) Throughput() Throughput {
	return Throughput{
		StepsPerSec:    r.StepsPerSec(),
		PacketsPerStep: r.PacketsPerStep(),
		WorkerUtil:     r.WorkerUtilization(),
	}
}

// Route activates every held packet whose Dst differs from its current
// processor and runs the synchronous step loop under the given policy
// until every one of them is delivered or stranded. It returns the phase
// statistics.
//
// The step loop runs on the caller's goroutine. With a multi-worker
// opts.Pool, a step whose active packet count reaches partMinActive is
// split across the pool by rank range (see part); smaller steps, and
// every step without such a pool, run as one part on the caller's
// goroutine. Both run the same kernel and give identical results, queue
// orders included. The step loop allocates nothing in steady state: the
// per-phase scratch (activity bitmaps, parts and their outboxes,
// stranding lists) is cached on the network and reused across phases
// and Resets, queues keep their learned capacities, and all packet
// references are arena indices. Heap allocations occur only on the first
// phase of a network's life (or after a shape-changing Reset or a change
// of pool size) and on degradation paths (stranding diagnostics, abort
// snapshots). Independent networks may also route concurrently on
// different goroutines, sharing policies and fault plans.
//
// Route never panics on policy misbehavior: boundary violations,
// monotonicity violations, and panics raised inside NextLink are all
// converted into an error returned here, together with the partial
// RouteResult accumulated so far. The same holds for the MaxSteps and
// no-progress aborts, whose error is a *DegradedError carrying a
// snapshot of the stuck packets. After a degraded abort the network is
// quiescent and conserved (no packet is mid-link), so it can be
// inspected and even routed again; after a boundary or monotonicity
// error the step was still completed and the network conserved, but the
// policy bug makes further routing meaningless; after a policy panic the
// network state is unspecified and only the process is guaranteed to
// survive.
func (n *Net) Route(policy Policy, opts RouteOpts) (RouteResult, error) {
	var res RouteResult
	st := n.scratch
	if parts := n.partsFor(opts.Pool); st == nil || len(st.parts) != parts {
		st = newStepState(n, parts)
		n.scratch = st
	}
	st.begin(policy, opts)
	watchdog := opts.NoProgress
	if watchdog == 0 {
		watchdog = 4*n.Topo.Diameter() + 64
		if 2*st.patience > watchdog {
			watchdog = 2 * st.patience
		}
	}

	arr := opts.Arrivals
	if arr != nil {
		if err := arr.validate(); err != nil {
			return res, err
		}
		if arr.cursor >= len(arr.Clocks) {
			arr = nil
		}
	}

	active := 0
	actQueue := 0
	totalPackets := 0     // for the paranoid conservation check
	totalTogo := int64(0) // remaining distance over all active packets
	for r := range n.procs {
		pr := &n.procs[r]
		// The eligibility stamps compare against the clock, which restarts
		// between problems — wipe them so a stale stamp cannot alias a
		// future step of a fresh clock.
		pr.fresh, pr.heldAt = 0, 0
		// Entries that survived a degraded abort (or a cancel) keep routing
		// this phase, but their cached links were resolved by the previous
		// phase's policy — invalidate them, and count them as active so the
		// step loop does not terminate before they are delivered (normally
		// the queues are empty and this loop does not run).
		for qi := range pr.moving {
			pr.moving[qi].link = linkUnknown
			togo := pr.moving[qi].togo
			totalTogo += int64(togo)
			res.MaxDist = max(res.MaxDist, int(togo))
			active++
			st.movingBits[r>>6] |= 1 << (uint(r) & 63)
		}
		kept := pr.held[:0]
		for _, id := range pr.held {
			p := n.pkt(id)
			if p.Dst == r {
				kept = append(kept, id)
				continue
			}
			togo := st.arm(r, id, p)
			totalTogo += int64(togo)
			res.MaxDist = max(res.MaxDist, int(togo))
			active++
		}
		pr.held = kept
		totalPackets += len(pr.moving) + len(pr.held)
		// Occupancy high-water mark: a processor can be fullest at
		// activation and only drain afterwards, so sample before the
		// step loop ever moves a packet.
		actQueue = max(actQueue, len(pr.moving)+len(pr.held))
	}
	if active == 0 && arr == nil {
		return res, nil
	}
	res.MaxQueue = actQueue

	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 64*n.Topo.Diameter() + 1024
		if arr != nil {
			// A timed plan legitimately spends simulated steps waiting for
			// its arrivals; budget the span to the last stamp on top.
			if last := int(arr.Clocks[len(arr.Clocks)-1]); last > n.clock {
				maxSteps += last - n.clock
			}
		}
	}

	var bestTotal int64
	lastImprove := 0
	// activate moves every arrival due at the current clock into the
	// network. It runs before the first step and between steps, exactly
	// like the phase-start scan above.
	activate := func() {
		due := 0
		for arr.cursor < len(arr.Clocks) && int(arr.Clocks[arr.cursor]) <= n.clock {
			id := arr.IDs[arr.cursor]
			arr.cursor++
			p := n.pkt(id)
			r := p.Src
			pr := &n.procs[r]
			totalPackets++
			if p.Dst == r {
				// Born at its destination: filed at rest immediately, like
				// the phase-start scan keeps dst==src packets held.
				pr.held = append(pr.held, id)
			} else {
				togo := st.arm(r, id, p)
				totalTogo += int64(togo)
				res.MaxDist = max(res.MaxDist, int(togo))
				active++
				due++
			}
			res.MaxQueue = max(res.MaxQueue, len(pr.moving)+len(pr.held))
		}
		if arr.cursor >= len(arr.Clocks) {
			arr = nil
		}
		if due > 0 {
			// Activation raises the remaining-distance total, which the
			// livelock watchdog would read as sustained non-progress;
			// re-arm it on the new baseline.
			bestTotal = totalTogo
			lastImprove = res.Steps
		}
	}
	start := time.Now()
	if arr != nil {
		// Arrivals already due (stamp at or before the current clock)
		// behave exactly like batch injection.
		activate()
	}
	bestTotal = totalTogo

	// Every way out of the loop sets err (or runs out of packets) and
	// falls through to the one exit below.
	var err error
steps:
	for active > 0 || arr != nil {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				// Cancellation is latency-sensitive: skip the stuckSnapshot
				// diagnostic scan abort would pay. The network stays
				// consistent (between steps); dirty makes the next phase
				// clean-sweep the survivors.
				st.dirty = true
				err = &CancelledError{Steps: res.Steps, Undelivered: active + arr.Pending()}
				break steps
			default:
			}
		}
		if res.Steps >= maxSteps {
			err = st.abort(&res, active+arr.Pending(), fmt.Sprintf("exceeded %d steps", maxSteps))
			break
		}
		if n.clock >= math.MaxInt32 {
			// The activation records store int32 born stamps; a clock past
			// that range would alias stamps from 2^31 steps ago.
			// Unreachable for any real phase (MaxSteps caps far lower), but
			// a custom MaxSteps must not turn wraparound into silent loss.
			err = st.abort(&res, active+arr.Pending(), "simulated clock exceeded int32 range")
			break
		}
		if arr != nil {
			if active == 0 {
				// Nothing can move until the next arrival: fast-forward the
				// idle gap. The skipped steps still count — simulated time
				// passed waiting, and latency figures must reflect it.
				if next := int(arr.Clocks[arr.cursor]); next > n.clock {
					res.Steps += next - n.clock
					n.clock = next
				}
			}
			activate()
			if active == 0 {
				continue
			}
		}
		n.clock++
		res.Steps++
		var c stepCounts
		if c, err = st.runStep(active); err != nil {
			break
		}
		active -= c.delivered
		res.Delivered += c.delivered
		res.SumOvershoot += int64(c.sumOver)
		res.Hops += int64(c.hops)
		totalTogo -= int64(c.togoDrop)
		res.MaxOvershoot = max(res.MaxOvershoot, c.maxOver)
		res.MaxQueue = max(res.MaxQueue, c.maxQueue)
		// Park this step's stranded packets, in id order, and drop them
		// from the active pool.
		if strands := st.strand; len(strands) > 0 {
			sort.Sort(diagsByID(strands))
			for _, d := range strands {
				totalTogo -= int64(d.Dist)
			}
			active -= len(strands)
			res.Stranded = append(res.Stranded, strands...)
		}
		// Livelock watchdog: abort when the total remaining distance
		// stops reaching new minima. Deliveries, monotone hops, and
		// stranding all lower it; pure circling does not.
		if totalTogo < bestTotal {
			bestTotal = totalTogo
			lastImprove = res.Steps
		} else if watchdog > 0 && res.Steps-lastImprove >= watchdog {
			err = st.abort(&res, active+arr.Pending(), fmt.Sprintf("made no progress for %d steps", watchdog))
			break
		}
		if opts.Paranoid {
			if err = st.checkInvariants(totalPackets); err != nil {
				break
			}
		}
		if opts.OnStep != nil {
			opts.OnStep(res.Steps)
		}
	}
	res.Elapsed = time.Since(start)
	res.WorkerBusy = time.Duration(st.busy)
	if opts.Sojourn != nil {
		st.mergeSojourn()
		res.Sojourn = opts.Sojourn.Summary()
	}
	// Raised on every exit, aborted phases included: their high-water
	// mark is real occupancy, and pipeline totals merge it from here.
	n.MaxQueue = max(n.MaxQueue, res.MaxQueue)
	return res, err
}

// abort ends a degraded phase: it snapshots the packets still moving,
// marks the scratch dirty, and wraps everything in a *DegradedError.
func (st *stepState) abort(res *RouteResult, undelivered int, reason string) error {
	res.Stuck = st.stuckSnapshot()
	st.dirty = true
	return &DegradedError{
		Reason:      reason,
		Steps:       res.Steps,
		Undelivered: undelivered,
		Stranded:    len(res.Stranded),
		Stuck:       res.Stuck,
	}
}

// stepState carries the reusable per-phase scratch of the step loop:
// the activity bitmaps, the phase's routing configuration, the parts a
// step runs as, and the stranding list. One instance is cached on the
// Net and survives phases, pipeline runs, and same-layout Resets; begin
// re-arms it per phase without allocating. A change of pool size
// rebuilds it (see Net.partsFor).
type stepState struct {
	net    *Net
	policy Policy

	// Fault injection and graceful degradation (see RouteOpts).
	faults   *FaultPlan
	patience int  // 0 = stranding disabled
	detour   bool // policy opted into non-monotone accounting

	// sojourn is RouteOpts.Sojourn, the caller's accumulator (nil = off).
	// The one-part layout and the first part observe into it directly;
	// the other parts observe into their own Hist, merged in at the end
	// of the phase (mergeSojourn).
	sojourn *stats.Hist

	// dirty marks bookkeeping that may have survived an abnormal end of
	// the previous phase (abort, cancel, or a policy panic); begin clears
	// it all.
	dirty bool

	// solo is the one-part layout: every bitmap word, run on the caller's
	// goroutine. parts is the partitioned layout, one part per pool
	// worker (capped by the word count); it holds solo alone when there
	// is no multi-worker pool. pool runs the partitioned layout; passFn
	// and finFn are its two per-step bodies, built once so that handing
	// them to Pool.Run allocates nothing.
	solo          *part
	soloSet       []*part // just solo, for gather
	parts         []*part
	pool          *Pool
	passFn, finFn func(w int)

	// minActive is the active-packet count from which a step runs
	// partitioned: partMinActive, or Net.partMin when a test lowers it.
	minActive int

	// movingBits marks, per processor, a non-empty moving queue: bit r
	// set means processor r has packets in transit. The kernel jumps
	// straight to set bits instead of testing every queue header — at a
	// million processors that linear test alone streams the whole proc
	// table once per step, and late in a phase only a few processors
	// still hold packets.
	movingBits []uint64

	// freshBits parks same-step activations: when a forward lands on a
	// processor with an empty queue, its movingBits bit is deferred here
	// and merged in at the end of the step. Setting it in movingBits
	// directly would make the pass visit the processor later in the same
	// step only to find every entry fresh — one wasted random proc-header
	// touch per activation. All-zero between steps.
	freshBits []uint64

	// recvBits marks receivers whose occupancy the pass could not sample
	// in place (those above the sender, which may still send later in the
	// step); the end-of-step sweep samples and clears them. All-zero
	// between steps.
	recvBits []uint64

	// mesh marks the inline fast path: the topology is a *topo.Mesh, so
	// the kernel uses the stride tables below instead of the Topology
	// interface. Non-mesh topologies leave it false and resolve neighbors
	// through Topo.Neighbor. The flag survives same-geometry Resets by
	// construction (topo.SameGeometry never crosses the mesh/non-mesh
	// boundary).
	mesh bool

	// greedy marks that the phase's policy certified itself (via
	// MeshGreedy) as the dimension-order greedy scheme on this very mesh,
	// so link resolution goes through the inline greedyNext instead of
	// the Policy interface. Re-derived by begin for every phase.
	greedy bool

	// divs caches side^(d-1-dim) per dimension: the rank stride of one
	// hop along dim, precomputed so the hot loops never call Ipow.
	// Mesh-only (nil otherwise), like divShift/sideMask/pow2 below.
	divs []int
	// Power-of-two strength reduction for the coordinate extraction
	// (rank / div) % side in the kernel: when side = 2^k it becomes
	// (rank >> divShift[dim]) & sideMask — two single-cycle operations
	// instead of two integer divisions, executed several times per packet
	// per step. Every benchmark-ladder side qualifies; odd sides keep the
	// division path.
	divShift []uint
	sideMask int
	pow2     bool

	strand []PacketDiag // packets stranded this step, gathered from the parts
	busy   int64        // nanoseconds spent in the kernel this phase, averaged over parts
}

// stepCounts are the per-step statistics the kernel hands back to Route.
type stepCounts struct {
	delivered, hops, togoDrop, sumOver, maxOver, maxQueue int
}

// partMinActive is the number of active packets at step start from
// which a step is split across the pool. Below it the split saves less
// than the pool's two barrier crossings and the parts' slower concurrent
// memory access cost. On a 2-core box, 2-worker routes of 512-2048
// packets on the d=3 n=16 mesh ran 11-51% slower with every step split,
// routes of 4096 and more on n=16 and n=32 ran 13-34% faster, and a
// 2-worker n=16/32 SimpleSort was fastest with the split starting at
// 2048 (EXPERIMENTS.md, "Partitioned step kernel").
const partMinActive = 2048

// partsFor returns the number of parts a step on this network splits
// into under the given pool: one per worker, capped by the number of
// 64-rank bitmap words (a part owns whole words).
func (n *Net) partsFor(pool *Pool) int {
	if pool == nil {
		return 1
	}
	return max(1, min(pool.Workers(), (len(n.procs)+63)/64))
}

func newStepState(n *Net, parts int) *stepState {
	words := (len(n.procs) + 63) / 64
	st := &stepState{
		net:        n,
		movingBits: make([]uint64, words),
		freshBits:  make([]uint64, words),
		recvBits:   make([]uint64, words),
		minActive:  partMinActive,
	}
	if n.partMin > 0 {
		st.minActive = n.partMin
	}
	st.solo = &part{st: st, lo: 0, hi: words}
	st.soloSet = []*part{st.solo}
	st.parts = st.soloSet
	if parts > 1 {
		st.parts = make([]*part, parts)
		for q := range st.parts {
			st.parts[q] = &part{
				st: st, idx: q, lo: q * words / parts, hi: (q + 1) * words / parts,
				out: make([][]xfer, parts), set: st.parts,
			}
		}
		st.passFn = func(w int) {
			if w < len(st.parts) {
				t0 := time.Now()
				st.parts[w].pass()
				st.parts[w].busy = time.Since(t0).Nanoseconds()
			}
		}
		st.finFn = func(w int) {
			if w < len(st.parts) {
				t0 := time.Now()
				st.parts[w].finish()
				st.parts[w].busy += time.Since(t0).Nanoseconds()
			}
		}
	}
	if _, isMesh := topo.MeshShape(n.Topo); isMesh {
		st.mesh = true
		st.divs = make([]int, n.Shape.Dim)
		div := 1
		for dim := n.Shape.Dim - 1; dim >= 0; dim-- {
			st.divs[dim] = div
			div *= n.Shape.Side
		}
		if side := n.Shape.Side; side&(side-1) == 0 {
			st.pow2 = true
			st.sideMask = side - 1
			logSide := uint(bits.TrailingZeros(uint(side)))
			st.divShift = make([]uint, n.Shape.Dim)
			for dim := range st.divShift {
				st.divShift[dim] = logSide * uint(n.Shape.Dim-1-dim)
			}
		}
	}
	return st
}

// dist is the step loop's distance query: the mesh's non-virtual
// Shape.Dist on the fast path, the interface call otherwise.
func (st *stepState) dist(a, b int) int {
	if st.mesh {
		return st.net.Shape.Dist(a, b)
	}
	return st.net.Topo.Dist(a, b)
}

// markDirty requests a full bookkeeping wipe at the next begin (used by
// Reset, whose queue truncation invalidates the incremental state).
func (st *stepState) markDirty() { st.dirty = true }

// begin re-arms the cached state for a new phase under the given policy
// and options. The activation scan in Route rebuilds movingBits from the
// queues, so the bitmap is wiped here; the step-local bitmaps are
// self-clearing across completed steps and only need a wipe after an
// abnormal phase end (dirty).
func (st *stepState) begin(policy Policy, opts RouteOpts) {
	st.policy = policy
	st.detour = false
	if dp, ok := policy.(DetourPolicy); ok && dp.Detours() {
		st.detour = true
	}
	st.greedy = false
	if st.mesh {
		if gp, ok := policy.(MeshGreedy); ok {
			if s, certified := gp.GreedyShape(); certified && s == st.net.Shape {
				st.greedy = true
			}
		}
	}
	st.faults = opts.Faults
	st.patience = opts.Patience
	if st.patience == 0 {
		if opts.Faults != nil {
			st.patience = 2*st.net.Topo.Diameter() + 64
		} else {
			st.patience = -1
		}
	}
	if st.patience < 0 {
		st.patience = 0 // disabled
	}
	st.sojourn = opts.Sojourn
	st.pool = opts.Pool
	for _, pt := range st.parts {
		pt.sojourn = st.sojourn
		if pt.idx > 0 && st.sojourn != nil {
			if pt.hist == nil {
				pt.hist = new(stats.Hist)
			}
			pt.sojourn = pt.hist
		}
	}
	st.solo.sojourn = st.sojourn
	st.busy = 0
	if st.dirty {
		clear(st.freshBits)
		clear(st.recvBits)
		for _, pt := range st.parts {
			for q := range pt.out {
				pt.out[q] = pt.out[q][:0]
			}
			if pt.hist != nil {
				pt.hist.Reset()
			}
		}
		st.dirty = false
	}
	clear(st.movingBits)
}

// mergeSojourn folds the sojourn times the parts past the first
// observed into the caller's accumulator and clears their histograms.
// Route calls it on every exit, so a phase's deliveries are all in the
// caller's Hist when it reads the summary.
func (st *stepState) mergeSojourn() {
	for _, pt := range st.parts {
		if pt.hist != nil && pt.hist.Count() > 0 {
			st.sojourn.Merge(pt.hist)
			pt.hist.Reset()
		}
	}
}

// arm turns packet id, at rest at rank r away from its destination, into
// a moving queue entry: it arms the per-phase accounting record and
// marks the processor moving. It returns the packet's distance to go.
func (st *stepState) arm(r int, id int32, p *Packet) int32 {
	n := st.net
	togo := int32(st.dist(r, p.Dst))
	arec := n.aux[int(id)*auxStride:][:auxStride]
	arec[auxBest] = togo
	arec[auxStall] = 0
	arec[auxBorn] = int32(n.clock)
	arec[auxBornD] = togo
	p.stranded = false
	pr := &n.procs[r]
	pr.moving = append(pr.moving, pktRef{
		id: id, dst: int32(p.Dst), class: int16(p.Class), togo: togo,
		link: linkUnknown,
	})
	st.movingBits[r>>6] |= 1 << (uint(r) & 63)
	return togo
}

// runStep advances the simulation by one synchronous step (see
// part.pass), given the number of packets active at its start: as one
// part on the caller's goroutine, or, once active reaches minActive on a
// multi-part layout, as every part on the pool. Errors the kernel
// recorded (boundary, monotonicity, or link-range violations) and panics
// that escape the policy are returned, never propagated as panics (the
// pool re-raises a worker's panic on the caller, where it is recovered
// here). Recorded errors leave the network conserved (the kernel
// finishes the step before the error is read); a policy panic abandons
// the rest of the step, so the network state is unusable afterwards —
// but the process survives.
func (st *stepState) runStep(active int) (c stepCounts, err error) {
	defer func() {
		if r := recover(); r != nil {
			st.dirty = true
			err = fmt.Errorf("engine: routing step panicked: %v", r)
		}
	}()
	parts := st.soloSet
	if len(st.parts) > 1 && active >= st.minActive {
		parts = st.parts
		st.pool.Run(st.passFn)
		st.pool.Run(st.finFn)
	} else {
		t0 := time.Now()
		st.solo.pass()
		st.solo.finish()
		st.solo.busy = time.Since(t0).Nanoseconds()
	}
	return st.gather(parts)
}

// gather merges the step results of the parts that ran it: counters are
// summed (maxima maxed), strands concatenated (Route orders them by id),
// kernel time averaged, and the error kept is the lowest-rank one, the
// lowest-ranked part winning ties — exactly the error a one-part pass,
// which visits senders in ascending rank order, records first.
func (st *stepState) gather(parts []*part) (c stepCounts, err error) {
	var busy int64
	errRank := 0
	st.strand = st.strand[:0]
	for _, pt := range parts {
		c.delivered += pt.c.delivered
		c.hops += pt.c.hops
		c.togoDrop += pt.c.togoDrop
		c.sumOver += pt.c.sumOver
		c.maxOver = max(c.maxOver, pt.c.maxOver)
		c.maxQueue = max(c.maxQueue, pt.c.maxQueue)
		st.strand = append(st.strand, pt.strand...)
		busy += pt.busy
		if pt.err != nil && (err == nil || pt.errRank < errRank) {
			err, errRank = pt.err, pt.errRank
		}
	}
	st.busy += busy / int64(len(parts))

	if err != nil {
		st.dirty = true
	}
	return c, err
}

// recordErr notes an engine-detected violation at the given rank. The
// kernel keeps going after recording (an early exit would leave packets
// mid-link); within a part the first error at the lowest rank wins.
func (pt *part) recordErr(rank int, err error) {
	if pt.err == nil || rank < pt.errRank {
		pt.err = err
		pt.errRank = rank
	}
}

// spendPatience charges one step of patience to every entry of an
// eligible queue prefix and reports whether any ran out. Personal-best
// accounting: only a new best distance refunds patience, so a packet
// circling a blocked region runs out just like one that cannot move at
// all. An expired entry stops requesting links (its cached link is set
// to no-move: the queue rebuild strands it, so the cached answer is dead
// anyway).
func (st *stepState) spendPatience(mv []pktRef) bool {
	aux := st.net.aux
	patience := int32(st.patience)
	expired := false
	for qi := range mv {
		e := &mv[qi]
		arec := aux[int(e.id)*auxStride:][:auxStride]
		if e.togo < arec[auxBest] {
			arec[auxBest] = e.togo
			arec[auxStall] = 0
		} else {
			arec[auxStall]++
		}
		if arec[auxStall] > patience {
			e.link = -1
			expired = true
		}
	}
	return expired
}

// liveGrants drops from a window's grant mask the links that the fault
// plan has down at rank r right now. A down link carries nothing this
// step: its winner stays queued, exactly as every other requester of
// that link would.
func (st *stepState) liveGrants(r, base int, grants uint64) uint64 {
	for m := grants; m != 0; m &= m - 1 {
		lw := bits.TrailingZeros64(m)
		if st.faults.LinkDown(r, base+lw, st.net.clock) {
			grants &^= 1 << uint(lw)
		}
	}
	return grants
}

// countLoads adds one traversal to every link of rank r that a window's
// forwards used (see SetCountLoads).
func (st *stepState) countLoads(r, base int, moved uint64) {
	n := st.net
	for ; moved != 0; moved &= moved - 1 {
		n.loads[r*n.links+base+bits.TrailingZeros64(moved)]++
	}
}

// nextLink resolves a packet's next link: inline dimension-order greedy
// when the phase's policy certified itself (see MeshGreedy), the
// interface call otherwise.
func (st *stepState) nextLink(rank, dst, class int) int {
	if st.greedy {
		return st.greedyNext(rank, dst, class)
	}
	return st.policy.NextLink(rank, dst, class)
}

// greedyNext is the engine-resident copy of the dimension-order greedy
// scheme (route.Greedy.NextLink), computed from the step state's own
// stride tables. It must stay behaviorally identical to the policy it
// replaces — the certification contract of MeshGreedy — and the
// paranoid checker enforces exactly that by re-asking the policy.
func (st *stepState) greedyNext(rank, dst, class int) int {
	d := len(st.divs)
	side := st.net.Shape.Side
	dim := class
	for i := 0; i < d; i++ {
		var c, t int
		if st.pow2 {
			sh := st.divShift[dim]
			c = (rank >> sh) & st.sideMask
			t = (dst >> sh) & st.sideMask
		} else {
			div := st.divs[dim]
			c = (rank / div) % side
			t = (dst / div) % side
		}
		if c != t {
			dir := 1
			if st.net.Shape.Torus {
				fwd := t - c
				if fwd < 0 {
					fwd += side
				}
				if fwd > side-fwd {
					dir = -1
				}
			} else if t < c {
				dir = -1
			}
			return LinkFor(dim, dir)
		}
		dim++
		if dim == d {
			dim = 0
		}
	}
	return -1
}

// part is one rank range of a step: the processors of bitmap words
// [lo, hi). It owns those words of every bitmap and its processors'
// queues for the whole step, so parts of one step run concurrently with
// no locks. A winner whose receiver lies in another part is not pushed
// but posted to out[q], the outbox of the receiving part q, which
// drains it after the pass barrier (finish). The solo part spans every
// word and never posts.
type part struct {
	st     *stepState
	idx    int     // position in set
	lo, hi int     // bitmap words owned
	set    []*part // every part of the layout (nil for solo)
	out    [][]xfer

	// Step results, read by stepState.gather after the step.
	c       stepCounts
	strand  []PacketDiag
	err     error
	errRank int
	busy    int64 // nanoseconds in pass and finish this step

	// sojourn is where this part's deliveries are observed: the
	// caller's Hist for solo and the first part, hist for the others.
	sojourn *stats.Hist
	hist    *stats.Hist

	// Parts are written by different workers: keep their hot fields on
	// separate cache lines.
	_ [64]byte
}

// xfer is a winner crossing into another part: its receiver and its
// queue entry as the receiver files it (togo and link already advanced).
type xfer struct {
	recv int32
	e    pktRef
}

// post files a cross-part winner in the outbox of the part that owns
// its receiver. Parts split the words evenly (part q starts at word
// q*W/P), so the owner of word w is the largest q with q*W/P <= w. It
// is kept out of line: inlined, its append would crowd the hop loop's
// registers on the one-part path, which never posts.
//
//go:noinline
func (pt *part) post(recv int, e pktRef) {
	words, parts := len(pt.st.movingBits), len(pt.set)
	q := ((recv>>6+1)*parts - 1) / words
	pt.out[q] = append(pt.out[q], xfer{int32(recv), e})
}

// pass is the engine's step kernel: one synchronous step of the paper's
// machine in a single pass over the part's processors with moving
// packets, in ascending rank order. At each processor every eligible
// packet requests a link, each link is granted to the highest-priority
// requester (farthest to go, then lowest id — the paper's contention
// rule), and the winners are pushed straight onto their receivers'
// queues — or, when the receiver belongs to another part, posted to that
// part's outbox.
//
// Synchronous-step semantics are kept by the per-processor eligibility
// watermark proc.fresh: entries pushed during the current step sit above
// it and are excluded from the contest, so the contest sees exactly the
// queue the processor held when the step began, and no packet moves
// twice in one step. Every step outcome is order-independent — the
// contest is decided by the strict (togo, id) order and each processor's
// contest reads only its own step-start entries. Pass order decides
// only the order of entries within a queue, and finish restores the
// one-part order for posted entries, so held lists come out identical
// at every part count.
//
// The kernel covers every mode without slowing the plain mesh-greedy
// hop: patience stranding (spendPatience, over the eligible prefix —
// exactly the packets that could have moved), fault plans (liveGrants:
// a link down at grant time forwards nothing) and link-load counting
// (countLoads) run once per processor behind flags tested outside the
// hop loop; detouring policies (togo recomputed instead of decremented),
// non-mesh topologies (receivers via Topo.Neighbor) and the part-owns-
// receiver test cost one predictable branch per hop each; topologies
// wider than 64 links run the contest once per 64-link window.
func (pt *part) pass() {
	st := pt.st
	n := st.net
	mb, nb, rb := st.movingBits, st.freshBits, st.recvBits
	clk := uint64(n.clock)
	clk32 := int32(n.clock)
	procs := n.procs
	aux := n.aux
	links := n.links
	// Loop invariants, hoisted: the body below runs once per hop, and st
	// field loads the compiler cannot cache across the recordErr call
	// sites are measurable there.
	divs, shifts := st.divs, st.divShift
	mask, pw2 := st.sideMask, st.pow2
	side := n.Shape.Side
	torus := n.Shape.Torus
	mesh, greedy, detour := st.mesh, st.greedy, st.detour
	sojourn := pt.sojourn
	// The part's rank range: a receiver r is its own when
	// uint(r-rlo) < span.
	rlo, span := pt.lo<<6, uint((pt.hi-pt.lo)<<6)
	pt.strand = pt.strand[:0]
	pt.err = nil
	// Transit-path counters live in locals for the duration of the step
	// (one flush at the end). Every hop lowers the remaining-distance
	// total by one except a detour's; extraDrop holds the difference.
	hops, extraDrop, maxQ := 0, 0, 0
	delivered, sumOver, maxOver := 0, 0, 0
	// Stack-resident link contest table for one 64-link window: grantMask
	// gates which entries of outQ are live, so the table needs no
	// clearing between windows or processors.
	var outQ [64]int32
	for i, word := range mb[pt.lo:pt.hi] {
		// word is a snapshot: emptied senders clear their bits in mb[wi]
		// as the pass strips bits off this working copy. (Same-step
		// activations never touch mb — they park in freshBits and merge
		// after the pass.)
		if word == 0 {
			continue
		}
		wi := pt.lo + i
		wbase := wi << 6
		for ; word != 0; word &= word - 1 {
			r := wbase + bits.TrailingZeros64(word)
			pr := &procs[r]
			eligible := len(pr.moving)
			if pr.fresh>>32 == clk {
				eligible = int(pr.fresh & 0xffffffff)
			}
			if eligible == 0 {
				// Unreachable while activations defer through freshBits
				// (a set movingBits bit implies step-start entries);
				// kept as a costless guard on that invariant.
				continue
			}
			// The link-request contest over the eligible prefix (a solo
			// entry simply wins its link unopposed). The prefix reslice is
			// safe — the watermark boundary never exceeds the queue length
			// — and lets the loop and the grant-table lookups below run
			// without bounds checks. It stays valid through the forward
			// loop: forwards touch other processors' queues, never this
			// one's. The contest runs per window of 64 link ids, so the
			// grant table fits a machine word and the stack: one window on
			// a mesh, ceil(links/64) on wider topologies such as a large
			// clique (each window rescans the queue; link resolution
			// happens in the first).
			mv := pr.moving[:eligible]
			expired := st.patience > 0 && st.spendPatience(mv)
			consumed := 0
			for base := 0; base < links; base += 64 {
				var grantMask uint64
				for qi := range mv {
					e := &mv[qi]
					// The cached link is valid until the packet moves (NextLink
					// is a pure function of position — see pktRef); only freshly
					// activated entries resolve it here.
					l := int(e.link)
					if l == int(linkUnknown) {
						l = st.nextLink(r, int(e.dst), int(e.class))
						if l >= links {
							pt.recordErr(r, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", l, e.id, r))
							e.link = -1
							continue
						}
						if l < 0 {
							l = -1
						}
						e.link = int16(l)
					}
					// One unsigned compare skips both the no-move answer (-1)
					// and links outside this window.
					lw := l - base
					if uint(lw) >= 64 {
						continue
					}
					if grantMask>>uint(lw)&1 == 0 {
						outQ[lw] = int32(qi)
						grantMask |= 1 << uint(lw)
					} else if ce := &mv[outQ[lw]]; e.togo > ce.togo || (e.togo == ce.togo && e.id < ce.id) {
						outQ[lw] = int32(qi)
					}
				}
				if st.faults != nil && grantMask != 0 {
					grantMask = st.liveGrants(r, base, grantMask)
				}
				// Forward every granted entry straight onto its receiver, in
				// link-id order.
				var moved uint64
				for m := grantMask; m != 0; m &= m - 1 {
					lw := bits.TrailingZeros64(m)
					e := &mv[outQ[lw]]
					l := base + lw
					recv := r
					var dim, div int
					if mesh {
						dim = LinkDim(l)
						div = divs[dim]
						var c int
						if pw2 {
							c = (r >> shifts[dim]) & mask
						} else {
							c = (r / div) % side
						}
						legal := true
						if LinkDir(l) > 0 {
							if c < side-1 {
								recv = r + div
							} else if torus {
								recv = r - (side-1)*div
							} else {
								legal = false
							}
						} else {
							if c > 0 {
								recv = r - div
							} else if torus {
								recv = r + (side-1)*div
							} else {
								legal = false
							}
						}
						if !legal {
							// Leave the packet in its queue (unconsumed): the error
							// aborts the phase after the step with the network
							// conserved.
							pt.recordErr(r, fmt.Errorf("engine: policy routed packet %d off the mesh boundary at rank %d link %d", e.id, r, l))
							continue
						}
					} else {
						var ok bool
						recv, ok = n.Topo.Neighbor(r, l)
						if !ok {
							pt.recordErr(r, fmt.Errorf("engine: policy routed packet %d over the edgeless link %d of rank %d on %v", e.id, l, r, n.Topo))
							continue
						}
					}
					next := e.togo - 1
					if detour {
						// Detouring policies may move packets away from their
						// destinations; recompute instead of decrementing.
						next = int32(st.dist(recv, int(e.dst)))
						extraDrop += int(e.togo) - int(next) - 1
					} else if next <= 0 && int(e.dst) != recv {
						pt.recordErr(r, fmt.Errorf("engine: non-monotone policy: packet %d exhausted its distance budget away from its destination", e.id))
					}
					p2 := &procs[recv]
					if next == 0 && int(e.dst) == recv {
						delivered++
						ab := int(e.id) * auxStride
						over := int((clk32 - aux[ab+auxBorn]) - aux[ab+auxBornD])
						sumOver += over
						if over > maxOver {
							maxOver = over
						}
						if sojourn != nil {
							sojourn.Observe(int64(clk32 - aux[ab+auxBorn]))
						}
						if uint(recv-rlo) >= span {
							// Another part's receiver: that part files the
							// entry after the barrier.
							pt.post(recv, pktRef{id: e.id, dst: e.dst, class: e.class, link: -1})
							e.id = noPacket
							moved |= 1 << uint(lw)
							continue
						}
						if p2.heldAt>>32 != clk {
							p2.heldAt = clk<<32 | uint64(len(p2.held))
						}
						p2.held = append(p2.held, e.id)
					} else {
						// Resolve the packet's next link from the receiver's
						// position now, while its entry is warm in cache: the
						// receiver's contest then just reads it, and stalled
						// packets never re-resolve at all.
						nl := int16(-1)
						var nl2 int
						if greedy {
							// Same-dimension shortcut: a greedy packet keeps
							// correcting the dimension it is moving along until
							// the coordinate matches, and the direction never
							// flips mid-course (the shorter-way choice and its
							// +1 tie-break are stable under the moves they
							// pick). Dimensions before dim in the packet's
							// class order are already corrected, so while dim
							// still mismatches it remains the first mismatch
							// and the next link is the link just taken.
							var rc, tc int
							if pw2 {
								sh := shifts[dim]
								rc = (recv >> sh) & mask
								tc = (int(e.dst) >> sh) & mask
							} else {
								rc = (recv / div) % side
								tc = (int(e.dst) / div) % side
							}
							if rc != tc {
								nl2 = l
							} else {
								nl2 = st.greedyNext(recv, int(e.dst), int(e.class))
							}
						} else {
							nl2 = st.policy.NextLink(recv, int(e.dst), int(e.class))
							if nl2 >= links {
								pt.recordErr(recv, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", nl2, e.id, recv))
								nl2 = -1
							}
						}
						if nl2 >= 0 {
							nl = int16(nl2)
						}
						if uint(recv-rlo) >= span {
							pt.post(recv, pktRef{id: e.id, dst: e.dst, class: e.class, togo: next, link: nl})
							e.id = noPacket
							moved |= 1 << uint(lw)
							continue
						}
						if len(p2.moving) == 0 {
							// Empty -> non-empty: the bit is parked in freshBits
							// and merged after the pass — set directly in
							// movingBits, a receiver above the sender would be
							// visited later this very step only to skip its
							// all-fresh queue.
							nb[recv>>6] |= 1 << (uint(recv) & 63)
						}
						if p2.fresh>>32 != clk {
							p2.fresh = clk<<32 | uint64(len(p2.moving))
						}
						p2.moving = append(p2.moving, pktRef{id: e.id, dst: e.dst, class: e.class, togo: next, link: nl})
					}
					// Occupancy high-water mark, sampled once the receiver's state
					// for this step is final: a receiver below the sender has
					// already sent (its queue only grows from here on) and is
					// sampled directly, while one above may still hold entries
					// that depart later this step — mark it for the end-of-step
					// sweep.
					if recv > r {
						rb[recv>>6] |= 1 << (uint(recv) & 63)
					} else if q := len(p2.moving) + len(p2.held); q > maxQ {
						maxQ = q
					}
					e.id = noPacket
					moved |= 1 << uint(lw)
				}
				if n.loads != nil {
					st.countLoads(r, base, moved)
				}
				consumed += bits.OnesCount64(moved)
			}
			hops += consumed
			if consumed == 0 && !expired {
				continue
			}
			if !expired && consumed == eligible && eligible == len(pr.moving) {
				// Everything moved (the solo-entry common case): truncate
				// instead of rebuilding. The watermark is necessarily stale
				// here — a push this step would have stamped it and
				// appended, making len exceed the eligible prefix.
				pr.moving = pr.moving[:0]
				mb[wi] &^= 1 << uint(r-wbase)
				continue
			}
			// Rebuild: drop consumed winners from the eligible prefix, park
			// packets whose patience ran out as stranded, keep the fresh
			// suffix, and re-anchor the watermark to the compacted prefix
			// length so later pushes keep appending above it. Entries are
			// pointer-free, so the truncated tail needs no clearing.
			kept := pr.moving[:0]
			for qi := 0; qi < eligible; qi++ {
				e := pr.moving[qi]
				if e.id == noPacket {
					continue
				}
				if expired && aux[int(e.id)*auxStride+auxStall] > int32(st.patience) {
					n.pkt(e.id).stranded = true
					pt.strand = append(pt.strand, st.diagnose(r, e))
					if pr.heldAt>>32 != clk {
						pr.heldAt = clk<<32 | uint64(len(pr.held))
					}
					pr.held = append(pr.held, e.id)
					continue
				}
				kept = append(kept, e)
			}
			keptOld := len(kept)
			for qi := eligible; qi < len(pr.moving); qi++ {
				kept = append(kept, pr.moving[qi])
			}
			pr.moving = kept
			if pr.fresh>>32 == clk {
				pr.fresh = clk<<32 | uint64(keptOld)
			}
			if len(pr.moving) == 0 {
				mb[wi] &^= 1 << uint(r-wbase)
			}
		}
	}
	pt.c = stepCounts{
		delivered: delivered, hops: hops, togoDrop: hops + extraDrop,
		sumOver: sumOver, maxOver: maxOver, maxQueue: maxQ,
	}
}

// finish completes the part's step after the pass barrier. It files the
// entries other parts posted here, merges the deferred activations of
// its words into movingBits, and samples the occupancy of its receivers.
//
// Posted entries are filed where a one-part pass would have put them.
// That pass visits senders in ascending rank order, so a lower part's
// entries belong in front of everything this part appended to the same
// queue during the step, and a higher part's entries behind it. The
// step stamps (proc.fresh for moving queues, proc.heldAt for held lists)
// mark where this step's appends begin; a lower part's entry is inserted
// there and the stamp moved past it, and a higher part's entry is
// appended. Queues and held lists therefore come out identical at every
// part count, which keeps the results of later phases (a block's
// shearsort, for one, reads held order) independent of the pool.
func (pt *part) finish() {
	st := pt.st
	procs := st.net.procs
	clk := uint64(st.net.clock)
	mb, nb, rb := st.movingBits, st.freshBits, st.recvBits
	maxQ := pt.c.maxQueue
	for _, src := range pt.set {
		if src == pt {
			continue
		}
		box := src.out[pt.idx]
		lower := src.idx < pt.idx
		for _, x := range box {
			r := int(x.recv)
			pr := &procs[r]
			if x.e.togo == 0 && int(x.e.dst) == r {
				pr.held = fileAt(pr.held, &pr.heldAt, clk, lower, x.e.id)
			} else {
				if len(pr.moving) == 0 {
					mb[r>>6] |= 1 << (uint(r) & 63)
				}
				pr.moving = fileAt(pr.moving, &pr.fresh, clk, lower, x.e)
			}
			maxQ = max(maxQ, len(pr.moving)+len(pr.held))
		}
		src.out[pt.idx] = box[:0]
	}
	// Merge the deferred activations: freshBits must read all-zero again
	// before the next step (and before the paranoid checker runs).
	nb, rb = nb[pt.lo:pt.hi], rb[pt.lo:pt.hi]
	mb = mb[pt.lo:pt.hi][:len(nb)]
	for i, word := range nb {
		if word != 0 {
			mb[i] |= word
			nb[i] = 0
		}
	}
	// End-of-step sweep over the receivers whose occupancy could not be
	// sampled in place: their state is final now.
	for i, word := range rb {
		if word == 0 {
			continue
		}
		rb[i] = 0
		wbase := (pt.lo + i) << 6
		for ; word != 0; word &= word - 1 {
			pr := &procs[wbase+bits.TrailingZeros64(word)]
			maxQ = max(maxQ, len(pr.moving)+len(pr.held))
		}
	}
	pt.c.maxQueue = maxQ
}

// fileAt adds v to a queue whose step stamp is *at (see proc.fresh and
// proc.heldAt): in front of this step's appends when front is set,
// moving the stamp past it, and at the back otherwise.
func fileAt[T any](q []T, at *uint64, clk uint64, front bool, v T) []T {
	if !front {
		return append(q, v)
	}
	if *at>>32 != clk {
		*at = clk<<32 | uint64(len(q))
	}
	i := int(*at & 0xffffffff)
	var zero T
	q = append(q, zero)
	copy(q[i+1:], q[i:])
	q[i] = v
	*at++
	return q
}

// diagnose captures a PacketDiag for the packet with the given queue
// entry at the given rank: its profitable links (the ones that would
// reduce its distance) and which of them the fault plan blocks right
// now. The cold Packet record is resolved here — diagnostics are off
// the hot path by definition.
func (st *stepState) diagnose(rank int, e pktRef) PacketDiag {
	n := st.net
	dst := int(e.dst)
	d := PacketDiag{
		ID: n.pkt(e.id).ID, Key: n.pkt(e.id).Key, Rank: rank, Dst: dst,
		Dist: int(e.togo), Waited: int(n.aux[int(e.id)*auxStride+auxStall]),
	}
	// A link is profitable exactly when it strictly reduces the
	// distance to the destination. Enumerating links in id order
	// reproduces the historical mesh order (dimensions ascending, and on
	// a torus tie both directions — each reduces the ring distance).
	cur := st.dist(rank, dst)
	for l := 0; l < n.links; l++ {
		recv, ok := n.Topo.Neighbor(rank, l)
		if !ok || st.dist(recv, dst) >= cur {
			continue
		}
		d.Wants = append(d.Wants, l)
		if st.faults.LinkDown(rank, l, n.clock) {
			d.Blocked = append(d.Blocked, l)
		}
	}
	return d
}

// stuckSnapshot diagnoses every packet still moving, in (rank, id) order.
// Only called between steps, with the network quiescent.
func (st *stepState) stuckSnapshot() []PacketDiag {
	var out []PacketDiag
	for r := range st.net.procs {
		for _, e := range st.net.procs[r].moving {
			out = append(out, st.diagnose(r, e))
		}
	}
	sort.Sort(diagsByRankID(out))
	return out
}

// diagsByID orders PacketDiags by packet id (the reporting order of
// per-step stranding lists). A concrete sort.Interface so the step loop
// never allocates a comparison closure.
type diagsByID []PacketDiag

func (d diagsByID) Len() int           { return len(d) }
func (d diagsByID) Less(i, j int) bool { return d[i].ID < d[j].ID }
func (d diagsByID) Swap(i, j int)      { d[i], d[j] = d[j], d[i] }

// diagsByRankID orders PacketDiags by (rank, id) — the stuck-snapshot
// order.
type diagsByRankID []PacketDiag

func (d diagsByRankID) Len() int { return len(d) }
func (d diagsByRankID) Less(i, j int) bool {
	if d[i].Rank != d[j].Rank {
		return d[i].Rank < d[j].Rank
	}
	return d[i].ID < d[j].ID
}
func (d diagsByRankID) Swap(i, j int) { d[i], d[j] = d[j], d[i] }

// checkInvariants is the paranoid per-step checker (RouteOpts.Paranoid):
// no step-local bitmap bit left set across a step boundary, packet
// conservation against the
// activation-time census, every held packet at its destination or
// explicitly stranded, the moving bitmap in step with the queues, and
// every moving packet's distance budget equal to its true distance.
func (st *stepState) checkInvariants(total int) error {
	n := st.net
	count := 0
	for r := range n.procs {
		pr := &n.procs[r]
		count += len(pr.moving) + len(pr.held)
		for _, id := range pr.held {
			p := n.pkt(id)
			if p.Dst != r && !p.stranded {
				return fmt.Errorf("engine: invariant violated: packet %d held at rank %d away from destination %d without being stranded", p.ID, r, p.Dst)
			}
		}
		if got := st.movingBits[r>>6]&(1<<(uint(r)&63)) != 0; got != (len(pr.moving) > 0) {
			return fmt.Errorf("engine: invariant violated: rank %d holds %d moving packets but its moving bit reads %v", r, len(pr.moving), got)
		}
		for _, e := range pr.moving {
			if want := st.dist(r, int(e.dst)); int(e.togo) != want {
				return fmt.Errorf("engine: invariant violated: packet %d at rank %d carries distance budget %d but is %d hops from its destination", e.id, r, e.togo, want)
			}
			if l := int(e.link); l != int(linkUnknown) && l >= 0 {
				if want := st.policy.NextLink(r, int(e.dst), int(e.class)); l != want {
					return fmt.Errorf("engine: invariant violated: packet %d at rank %d caches link %d but the policy picks %d", e.id, r, l, want)
				}
			}
		}
	}
	for wi := range st.recvBits {
		if word := st.recvBits[wi] | st.freshBits[wi]; word != 0 {
			return fmt.Errorf("engine: invariant violated: step-local bits %#x for processors [%d,%d) left set across a step boundary", word, wi*64, wi*64+64)
		}
	}
	if count != total {
		return fmt.Errorf("engine: invariant violated: %d packets in the network, %d activated", count, total)
	}
	return nil
}

// Snapshot returns the current processor of every packet in the network
// (moving and held), keyed by packet id. Intended for OnStep inspection
// and tests; O(N + packets).
func (n *Net) Snapshot() map[int]int {
	out := make(map[int]int, n.nextID)
	for r := range n.procs {
		for _, e := range n.procs[r].moving {
			out[n.pkt(e.id).ID] = r
		}
		for _, id := range n.procs[r].held {
			out[n.pkt(id).ID] = r
		}
	}
	return out
}

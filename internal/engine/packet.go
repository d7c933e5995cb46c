package engine

// Packet is a unit of routable data: the algorithm-facing record of the
// arena. A packet belongs to one network, and only the goroutine routing
// that network — or the local-phase worker owning the packet's block —
// touches it at any time, so packets need no locks.
//
// The engine's per-step routing state (remaining distance, patience
// counters, activation records) does not live here: it is kept in the
// moving-queue entries and in the Net's accounting slab indexed by ID,
// so the step loop never pulls these cold fields through the cache. Dst
// and Class are copied into the queue entry when a routing phase
// activates the packet — changing them mid-phase has no effect (and is
// illegal anyway: algorithms only modify packets between phases).
type Packet struct {
	ID  int   // unique id == arena index, assigned at creation
	Key int64 // sort key (ignored by pure routing)

	Src int // canonical rank of the processor that injected the packet
	Dst int // canonical rank of the current destination

	// Class selects the dimension-order rotation used by the extended
	// greedy routing scheme (Section 2.2 of the paper): a packet of class
	// c corrects dimensions in the order c, c+1, ..., c-1 (mod d).
	Class int

	// Tag and Pair carry algorithm-specific metadata (e.g. CopySort uses
	// Tag to distinguish originals from copies and Pair to link them).
	Tag  int
	Pair int

	// stranded marks a packet parked in the held queue by the patience
	// mechanism with its destination unreached; cleared at activation so
	// later phases retry it.
	stranded bool
}

// Tag values used by the sorting algorithms.
const (
	TagOriginal = 0
	TagCopy     = 1
)

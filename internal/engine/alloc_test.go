package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/xmath"
)

// TestWarmRouteDoesNotAllocate is the allocation-regression guard for the
// tentpole claim of the arena data plane: on a warm network (arena
// chunks, queue capacities, and step scratch all learned by a first run)
// a full inject-and-route cycle performs zero heap allocations. A future
// change that reintroduces per-step allocation — a closure in the step
// loop, a fresh scratch slice per phase, a pointer queue — fails here
// immediately.
func TestWarmRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	s := grid.New(3, 8)
	net := New(s)

	rng := xmath.NewRNG(5)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s} // boxed once; boxing inside run would count as an alloc
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the arena, the queues, and the step scratch
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmRouteDoesNotAllocateLargeRung extends the zero-allocation
// guard to a benchmark-ladder rung (d=3, n=32: 32768 processors), where
// the arena spans multiple chunks and the slab growth, shard tracking,
// and queue reuse all operate at scale. Skipped under -short: the warm-up
// plus verification runs route ~100k packet-hops each.
func TestWarmRouteDoesNotAllocateLargeRung(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	if testing.Short() {
		t.Skip("ladder-rung alloc guard skipped in -short mode")
	}
	s := grid.New(3, 32)
	net := New(s)

	rng := xmath.NewRNG(17)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(2, run); avg != 0 {
		t.Fatalf("warm ladder-rung route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmTimedRouteDoesNotAllocate extends the zero-allocation guard to
// the traffic-driven configuration: a timed arrival plan (packets born
// mid-run) with sojourn latency accounting enabled. The plan, the
// histogram accumulator, and the per-worker histograms are all reused
// across runs, so a warm timed phase must allocate exactly as much as a
// warm batch phase: nothing.
func TestWarmTimedRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	s := grid.New(3, 8)
	net := New(s)

	rng := xmath.NewRNG(23)
	srcs := make([]int, s.N())
	dsts := make([]int, s.N())
	clocks := make([]int32, s.N())
	clock := int32(0)
	for i := range srcs {
		srcs[i] = rng.Intn(s.N())
		dsts[i] = rng.Intn(s.N())
		clock += int32(rng.Intn(3))
		clocks[i] = clock
	}
	arr := &Arrivals{Clocks: make([]int32, 0, s.N()), IDs: make([]int32, 0, s.N())}
	var hist stats.Hist
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		arr.Clocks = arr.Clocks[:0]
		arr.IDs = arr.IDs[:0]
		for i := range srcs {
			p := net.NewPacket(int64(i), srcs[i])
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			arr.Add(clocks[i], p)
		}
		arr.Rewind()
		hist.Reset()
		if _, err := net.Route(pol, RouteOpts{Arrivals: arr, Sojourn: &hist}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the arena, the queues, the step scratch, and the histograms
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm timed route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmRouteDoesNotAllocateSingleWorker extends the guard to the
// torus wrap arithmetic. Every route runs on its caller's single
// goroutine; the guard for routes running in parallel is the next test.
func TestWarmRouteDoesNotAllocateSingleWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	s := grid.NewTorus(2, 8)
	net := New(s)

	rng := xmath.NewRNG(9)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm single-worker route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmRoutesInParallelDoNotAllocate holds the zero-allocation
// contract under real parallelism, which testing.AllocsPerRun cannot (it
// pins GOMAXPROCS to 1). At GOMAXPROCS=2 two workers route two warm d=3
// n=16 networks at once — the meshsortd shape, one network per runner —
// and the heap must not grow by a single byte over 50 greedy routes,
// read from runtime.MemStats across both goroutines.
//
// The workers hand off through spinning atomics rather than a Pool or a
// WaitGroup: a goroutine that parks on a channel or semaphore takes a
// 96-byte runtime wait record from a per-P cache that every GC empties,
// so a parked hand-off allocates now and then at GOMAXPROCS >= 2 (the
// source of the stray 3–182 B/op once read off -cpu 2 benchmark runs).
// That is the runtime's allocation, not the engine's. So is the other
// one the runtime makes here: Route's per-phase policy type assertions
// go through call-site caches that the runtime rebuilds (48 bytes) at a
// random one-in-1024 of the calls until the policy's type is cached.
// Each worker therefore first runs a few thousand empty phases, which
// cost a type assertion each and settle those caches for good.
func TestWarmRoutesInParallelDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := grid.New(3, 16)
	var pol Policy = certifiedGreedy{greedyTestPolicy{s}}
	const workers, routesPerWorker = 2, 25
	var start, done atomic.Int32
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		net := New(s)
		dsts := xmath.NewRNG(uint64(31 + w)).Perm(s.N())
		pkts := make([]*Packet, s.N())
		route := func() {
			net.Reset(s)
			for j := range pkts {
				p := net.NewPacket(int64(j), j)
				p.Dst = dsts[j]
				p.Class = j % s.Dim
				pkts[j] = p
			}
			net.Inject(pkts)
			if _, err := net.Route(pol, RouteOpts{}); err != nil && errs[w] == nil {
				errs[w] = err
			}
		}
		route() // warm-up: grows the arena, the queues, and the step scratch
		net.Reset(s)
		for i := 0; i < 1<<14; i++ {
			net.Route(pol, RouteOpts{}) // nothing to route: just the assertions
		}
		go func() {
			for start.Load() == 0 {
				runtime.Gosched()
			}
			for i := 0; i < routesPerWorker; i++ {
				route()
			}
			done.Add(1)
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start.Store(1)
	for done.Load() < workers {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if b, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs; b != 0 || m != 0 {
		t.Fatalf("%d warm routes on %d parallel workers allocated %d bytes in %d objects, want 0",
			routesPerWorker*workers, workers, b, m)
	}
}

// TestWarmPartitionedRouteDoesNotAllocate extends the GOMAXPROCS=2 guard
// to the partitioned kernel: a warm d=3 n=16 network routes on a
// 2-worker pool with the threshold seam lowered, so every step splits
// into two parts on two goroutines, and the heap must not grow by a
// single byte over 25 greedy routes. The parts, their outboxes and the
// pool's per-step bodies are built once with the step scratch; handing a
// method value such as pt.finish to Pool.Run instead would allocate a
// closure per step.
//
// The caveats of the previous test apply, and here the pool's parked
// hand-off cannot be avoided: its goroutines spin between steps but park
// between routes. Warm-up routes settle the runtime's caches (see
// below), and nothing in the measured window allocates, so no GC
// empties them again.
func TestWarmPartitionedRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := grid.New(3, 16)
	var pol Policy = certifiedGreedy{greedyTestPolicy{s}}
	pool := NewPool(2)
	defer pool.Close()
	net := New(s)
	net.partMin = 1
	dsts := xmath.NewRNG(37).Perm(s.N())
	pkts := make([]*Packet, s.N())
	var hist stats.Hist
	opts := RouteOpts{Pool: pool, Sojourn: &hist}
	route := func() {
		net.Reset(s)
		for j := range pkts {
			p := net.NewPacket(int64(j), j)
			p.Dst = dsts[j]
			p.Class = j % s.Dim
			pkts[j] = p
		}
		net.Inject(pkts)
		hist.Reset()
		if _, err := net.Route(pol, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the first route grows the arena, queues, step scratch,
	// outboxes and part histograms. The rest fill the runtime's wait
	// record caches: every park takes a record from its P's cache and the
	// wake returns it to whichever P the goroutine resumes on, so until
	// both Ps' caches hold spares a park allocates a fresh record.
	for i := 0; i < 200; i++ {
		route()
	}
	net.Reset(s)
	for i := 0; i < 1<<14; i++ {
		net.Route(pol, opts) // nothing to route: just the assertions
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const routes = 25
	for i := 0; i < routes; i++ {
		route()
	}
	runtime.ReadMemStats(&after)
	if b, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs; b != 0 || m != 0 {
		t.Fatalf("%d warm partitioned routes allocated %d bytes in %d objects, want 0", routes, b, m)
	}
}

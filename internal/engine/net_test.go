package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/xmath"
)

// greedyTestPolicy is a minimal dimension-order policy for engine tests
// (the production one lives in internal/route; duplicating a tiny version
// here avoids an import cycle in tests).
type greedyTestPolicy struct{ s grid.Shape }

func (g greedyTestPolicy) NextLink(rank, dst, class int) int {
	d := g.s.Dim
	for i := 0; i < d; i++ {
		dim := (class + i) % d
		c := g.s.Coord(rank, dim)
		t := g.s.Coord(dst, dim)
		if c == t {
			continue
		}
		dir := 1
		if g.s.Torus {
			fwd := xmath.Mod(t-c, g.s.Side)
			if fwd > g.s.Side-fwd {
				dir = -1
			}
		} else if t < c {
			dir = -1
		}
		return LinkFor(dim, dir)
	}
	return -1
}

func TestLinkEncoding(t *testing.T) {
	for dim := 0; dim < 4; dim++ {
		for _, dir := range []int{-1, 1} {
			l := LinkFor(dim, dir)
			if LinkDim(l) != dim || LinkDir(l) != dir {
				t.Fatalf("link roundtrip failed for (%d,%d)", dim, dir)
			}
		}
	}
}

func TestSinglePacketTravelsItsDistance(t *testing.T) {
	for _, s := range []grid.Shape{grid.New(2, 8), grid.New(3, 6), grid.NewTorus(2, 8), grid.NewTorus(3, 6)} {
		net := New(s)
		p := net.NewPacket(0, 0)
		p.Dst = s.N() - 1
		net.Inject([]*Packet{p})
		res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := s.Dist(0, s.N()-1)
		if res.Steps != want {
			t.Errorf("%v: lone packet took %d steps for distance %d", s, res.Steps, want)
		}
		if res.MaxOvershoot != 0 {
			t.Errorf("%v: lone packet overshoot %d", s, res.MaxOvershoot)
		}
		if len(net.Held(p.Dst)) != 1 {
			t.Errorf("%v: packet not at destination", s)
		}
	}
}

func TestRouteDeliversRandomPermutation(t *testing.T) {
	s := grid.New(3, 6)
	net := New(s)
	rng := xmath.NewRNG(4)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	for i := range pkts {
		pkts[i] = net.NewPacket(int64(i), i)
		pkts[i].Dst = dsts[i]
		pkts[i].Class = rng.Intn(s.Dim)
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < s.N(); r++ {
		held := net.Held(r)
		if len(held) != 1 || net.Packet(held[0]).Dst != r {
			t.Fatalf("rank %d holds %d packets", r, len(held))
		}
	}
	moved := 0
	for i, d := range dsts {
		if d != i {
			moved++
		}
	}
	if res.Delivered != moved {
		t.Errorf("delivered %d, want %d (non-fixed points)", res.Delivered, moved)
	}
	if net.TotalPackets() != s.N() {
		t.Error("packet conservation violated")
	}
	if res.Steps < res.MaxDist {
		t.Error("steps below max distance is impossible")
	}
}

func TestRouteIsDeterministic(t *testing.T) {
	run := func() ([]int, int) {
		s := grid.New(3, 6)
		net := New(s)
		rng := xmath.NewRNG(99)
		dsts := rng.Perm(s.N())
		pkts := make([]*Packet, s.N())
		for i := range pkts {
			pkts[i] = net.NewPacket(int64(i), i)
			pkts[i].Dst = dsts[i]
			pkts[i].Class = i % s.Dim
		}
		net.Inject(pkts)
		res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// Fingerprint: per-processor packet ids.
		fp := make([]int, 0, s.N())
		for r := 0; r < s.N(); r++ {
			for _, id := range net.Held(r) {
				fp = append(fp, net.Packet(id).ID)
			}
		}
		return fp, res.Steps
	}
	fp1, steps1 := run()
	fp2, steps2 := run()
	if steps1 != steps2 {
		t.Fatalf("step counts differ between two runs: %d vs %d", steps1, steps2)
	}
	for i := range fp1 {
		if fp1[i] != fp2[i] {
			t.Fatal("final placement differs between two runs")
		}
	}
}

func TestRouteStartsOnlyMismatched(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	p := net.NewPacket(7, 3) // Dst defaults to Src
	net.Inject([]*Packet{p})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || res.Delivered != 0 {
		t.Error("at-rest packet was routed")
	}
	if len(net.Held(3)) != 1 {
		t.Error("at-rest packet moved")
	}
}

func TestMaxStepsAborts(t *testing.T) {
	s := grid.New(2, 8)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = s.N() - 1
	net.Inject([]*Packet{p})
	// A policy that never moves the packet.
	lazy := policyFunc(func(rank, dst, class int) int { return -1 })
	_, err := net.Route(lazy, RouteOpts{MaxSteps: 5})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("expected max-steps error, got %v", err)
	}
}

type policyFunc func(rank, dst, class int) int

func (f policyFunc) NextLink(rank, dst, class int) int { return f(rank, dst, class) }

func TestOffGridSendErrors(t *testing.T) {
	s := grid.New(1, 4)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = 3
	net.Inject([]*Packet{p})
	bad := policyFunc(func(rank, dst, class int) int { return LinkFor(0, -1) }) // off the low edge
	_, err := net.Route(bad, RouteOpts{})
	if err == nil || !strings.Contains(err.Error(), "off the mesh boundary") {
		t.Errorf("off-grid send: got %v, want boundary error", err)
	}
	if net.TotalPackets() != 1 {
		t.Error("packet not conserved across the boundary-violation abort")
	}
}

func TestInvalidLinkErrors(t *testing.T) {
	s := grid.New(1, 4)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = 3
	net.Inject([]*Packet{p})
	bad := policyFunc(func(rank, dst, class int) int { return 99 })
	_, err := net.Route(bad, RouteOpts{})
	if err == nil || !strings.Contains(err.Error(), "invalid link") {
		t.Errorf("invalid link: got %v, want invalid-link error", err)
	}
}

func TestNonMonotonePolicyErrors(t *testing.T) {
	s := grid.New(1, 8)
	net := New(s)
	p := net.NewPacket(0, 4)
	p.Dst = 5
	net.Inject([]*Packet{p})
	// Always move left: walks away from the destination.
	bad := policyFunc(func(rank, dst, class int) int { return LinkFor(0, -1) })
	_, err := net.Route(bad, RouteOpts{})
	if err == nil || !strings.Contains(err.Error(), "non-monotone") {
		t.Errorf("non-monotone policy: got %v, want monotonicity error", err)
	}
	if net.TotalPackets() != 1 {
		t.Error("packet not conserved across the monotonicity abort")
	}
}

func TestPolicyPanicBecomesError(t *testing.T) {
	s := grid.New(1, 8)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = 7
	net.Inject([]*Packet{p})
	bad := policyFunc(func(rank, dst, class int) int {
		if rank == 3 {
			panic("policy bug")
		}
		return LinkFor(0, 1)
	})
	_, err := net.Route(bad, RouteOpts{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("policy panic: got %v, want panic-converted error", err)
	}
}

func TestContentionFarthestFirst(t *testing.T) {
	// Two packets at the same processor both want +x; the one with the
	// farther destination must win the link.
	s := grid.New(1, 8)
	net := New(s)
	far := net.NewPacket(1, 0)
	far.Dst = 7
	near := net.NewPacket(2, 0)
	near.Dst = 3
	net.Inject([]*Packet{far, near})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// far needs 7 steps and must never be delayed; near is delayed once.
	if res.Steps != 7 {
		t.Errorf("phase took %d steps, want 7", res.Steps)
	}
	if res.MaxOvershoot != 1 {
		t.Errorf("near packet overshoot = %d, want 1", res.MaxOvershoot)
	}
}

func TestQueueTracksMultiplePackets(t *testing.T) {
	// k packets per processor all moving to one destination stress the
	// queue accounting.
	s := grid.New(2, 4)
	net := New(s)
	var pkts []*Packet
	for r := 0; r < s.N(); r++ {
		p := net.NewPacket(int64(r), r)
		p.Dst = 0
		pkts = append(pkts, p)
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.Held(0)); got != s.N() {
		t.Errorf("destination holds %d packets, want %d", got, s.N())
	}
	if res.MaxQueue < s.N()/2 {
		t.Errorf("MaxQueue %d suspiciously small for full concentration", res.MaxQueue)
	}
	if net.MaxQueue != res.MaxQueue {
		t.Error("network high-water mark not updated")
	}
}

func TestAdvanceClockAndOracle(t *testing.T) {
	net := New(grid.New(2, 4))
	net.AdvanceClock(10)
	if net.Clock() != 10 {
		t.Error("clock not advanced")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance did not panic")
		}
	}()
	net.AdvanceClock(-1)
}

func TestSetHeldAndForEach(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	a := net.NewPacket(1, 2)
	b := net.NewPacket(2, 2)
	net.SetHeld(2, []int32{int32(a.ID), int32(b.ID)})
	count := 0
	net.ForEachHeld(func(rank int, p *Packet) {
		if rank != 2 {
			t.Error("wrong rank in ForEachHeld")
		}
		count++
	})
	if count != 2 || net.TotalPackets() != 2 {
		t.Error("held accounting wrong")
	}
}

func TestPacketIDsUnique(t *testing.T) {
	net := New(grid.New(2, 4))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := net.NewPacket(0, 0)
		if seen[p.ID] {
			t.Fatal("duplicate packet id")
		}
		seen[p.ID] = true
	}
}

func TestTorusWrapRouting(t *testing.T) {
	// A packet crossing the wrap-around edge must take the short way.
	s := grid.NewTorus(1, 8)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = 7 // distance 1 via wrap
	net.Inject([]*Packet{p})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("wrap routing took %d steps, want 1", res.Steps)
	}
}

// sameAcrossWorkers runs fn alone, then on workers goroutines at once —
// parallelism lives across networks (one per meshsortd runner), so
// concurrent routes share policies and fault plans but nothing else —
// and fails the test unless every concurrent outcome equals the solo
// one. It returns the solo outcome. fn must report failures with
// t.Error, not t.Fatal, since it runs off the test goroutine.
func sameAcrossWorkers[T any](t *testing.T, workers int, fn func() T) T {
	t.Helper()
	want := fn()
	got := make([]T, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = fn()
		}()
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d of %d diverged from the solo run:\n%+v\n%+v", w, workers, got[w], want)
		}
	}
	return want
}

// TestRouteDeterministicAcrossWorkers is the determinism contract under
// real parallelism: the full RouteResult (minus wall-clock fields) and
// the final packet placement must be identical whether a network routes
// alone or beside others on concurrent workers, on meshes and tori. Run
// it under -race to also exercise the memory model.
func TestRouteDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		res RouteResult
		fp  string
	}
	shapes := []grid.Shape{grid.New(3, 6), grid.NewTorus(3, 6), grid.NewTorus(3, 2)}
	for _, s := range shapes {
		var pol Policy = greedyTestPolicy{s}
		run := func() outcome {
			net := New(s)
			rng := xmath.NewRNG(99)
			dsts := rng.Perm(s.N())
			pkts := make([]*Packet, s.N())
			for i := range pkts {
				pkts[i] = net.NewPacket(int64(i), i)
				pkts[i].Dst = dsts[i]
				pkts[i].Class = i % s.Dim
			}
			net.Inject(pkts)
			res, err := net.Route(pol, RouteOpts{})
			if err != nil {
				t.Error(err)
			}
			var fp strings.Builder
			for r := 0; r < s.N(); r++ {
				fmt.Fprintf(&fp, "%d:", r)
				for _, id := range net.Held(r) {
					p := net.Packet(id)
					fmt.Fprintf(&fp, " %d(src %d)", p.ID, p.Src)
				}
				fp.WriteByte('\n')
			}
			return outcome{normalizeResult(res), fp.String()}
		}
		for _, workers := range []int{2, 5} {
			sameAcrossWorkers(t, workers, run)
		}
	}
}

// TestMaxQueueCountsInitialOccupancy is the regression test for the
// under-count bug: occupancy used to be sampled only during the deliver
// phase, after the first send phase had already stripped each link winner
// from its moving queue — so the stack a phase starts with was never
// observed at full height.
func TestMaxQueueCountsInitialOccupancy(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	var pkts []*Packet
	// Three movers stacked on rank 0, draining along row 0. After the
	// first send phase the stack is already down to two, and no receiver
	// ever holds more than one packet, so deliver-phase sampling alone
	// tops out at 2.
	for _, dst := range []int{1, 2, 3} {
		p := net.NewPacket(int64(dst), 0)
		p.Dst = dst
		pkts = append(pkts, p)
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != 3 {
		t.Errorf("MaxQueue = %d, want 3 (the stack at phase start)", res.MaxQueue)
	}
	if net.MaxQueue != 3 {
		t.Errorf("Net.MaxQueue = %d, want 3", net.MaxQueue)
	}
}

// TestMaxQueueSeesAtRestPile: the deliver phase now visits only
// processors flagged as receivers, so a pile of at-rest packets that
// never receives anything is observable only through the activation
// sweep. Guard that the sweep covers it.
func TestMaxQueueSeesAtRestPile(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	var pkts []*Packet
	mover := net.NewPacket(0, 0)
	mover.Dst = 1
	pkts = append(pkts, mover)
	// Five at-rest packets parked on rank (3,0), which the mover never
	// visits.
	rest := s.Rank([]int{3, 0})
	for i := 0; i < 5; i++ {
		pkts = append(pkts, net.NewPacket(0, rest)) // Dst defaults to Src: stays held
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != 5 {
		t.Errorf("MaxQueue = %d, want 5 (the at-rest pile)", res.MaxQueue)
	}
}

// TestTwoSideTorusDoubleEdge: on a side-2 torus both directions out of a
// node reach the same neighbor over two distinct physical links. Two
// packets must be able to cross in the same step, one per link.
func TestTwoSideTorusDoubleEdge(t *testing.T) {
	s := grid.NewTorus(1, 2)
	net := New(s)
	net.SetCountLoads(true)
	a := net.NewPacket(1, 0)
	a.Dst = 1
	b := net.NewPacket(2, 0)
	b.Dst = 1
	b.Class = 1 // policies see (rank, dst, class); class tells the packets apart
	net.Inject([]*Packet{a, b})
	split := policyFunc(func(rank, dst, class int) int {
		if class == 0 {
			return LinkFor(0, 1)
		}
		return LinkFor(0, -1)
	})
	res, err := net.Route(split, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 || res.Delivered != 2 || res.Hops != 2 {
		t.Errorf("double-edge crossing: steps=%d delivered=%d hops=%d, want 1/2/2",
			res.Steps, res.Delivered, res.Hops)
	}
	if len(net.Held(1)) != 2 {
		t.Errorf("rank 1 holds %d packets, want 2", len(net.Held(1)))
	}
	// Each physical link of the double edge carried exactly one packet.
	if got := net.LinkLoad(0, LinkFor(0, 1)); got != 1 {
		t.Errorf("load on (0,+1) link = %d, want 1", got)
	}
	if got := net.LinkLoad(0, LinkFor(0, -1)); got != 1 {
		t.Errorf("load on (0,-1) link = %d, want 1", got)
	}
	prof := net.LoadProfile()
	if prof.Total != 2 || prof.Max != 1 || prof.ByDim[0] != 2 {
		t.Errorf("LoadProfile = %+v, want Total=2 Max=1 ByDim=[2]", prof)
	}
}

// TestTwoSideTorusAntipodalPermutation routes every packet to the
// opposite corner of a 2^3 torus: all 8 packets move simultaneously with
// zero contention, so steps, hops, and the load profile are all exact.
func TestTwoSideTorusAntipodalPermutation(t *testing.T) {
	s := grid.NewTorus(3, 2)
	net := New(s)
	net.SetCountLoads(true)
	pkts := make([]*Packet, s.N())
	for r := 0; r < s.N(); r++ {
		c := make([]int, s.Dim)
		for dim := 0; dim < s.Dim; dim++ {
			c[dim] = 1 - s.Coord(r, dim)
		}
		pkts[r] = net.NewPacket(int64(r), r)
		pkts[r].Dst = s.Rank(c)
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 || res.Delivered != 8 || res.Hops != 24 || res.MaxOvershoot != 0 {
		t.Errorf("antipodal perm: steps=%d delivered=%d hops=%d overshoot=%d, want 3/8/24/0",
			res.Steps, res.Delivered, res.Hops, res.MaxOvershoot)
	}
	for r := 0; r < s.N(); r++ {
		held := net.Held(r)
		if len(held) != 1 || net.Packet(held[0]).Dst != r {
			t.Fatalf("rank %d holds %d packets after antipodal perm", r, len(held))
		}
	}
	// Dimension-order routing uses each node's +1 link in each dimension
	// exactly once: 24 loaded links, none loaded twice.
	prof := net.LoadProfile()
	if prof.Total != 24 || prof.Max != 1 {
		t.Errorf("LoadProfile Total=%d Max=%d, want 24/1", prof.Total, prof.Max)
	}
	for dim := 0; dim < s.Dim; dim++ {
		if prof.ByDim[dim] != 8 {
			t.Errorf("ByDim[%d] = %d, want 8", dim, prof.ByDim[dim])
		}
	}
}

// TestRouteThroughputCounters sanity-checks the wall-clock side of
// RouteResult: populated, positive, and internally consistent.
func TestRouteThroughputCounters(t *testing.T) {
	s := grid.New(3, 6)
	net := New(s)
	rng := xmath.NewRNG(7)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	for i := range pkts {
		pkts[i] = net.NewPacket(0, i)
		pkts[i].Dst = dsts[i]
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
	}
	if res.StepsPerSec() <= 0 {
		t.Errorf("StepsPerSec = %v, want > 0", res.StepsPerSec())
	}
	if want := float64(res.Hops) / float64(res.Steps); res.PacketsPerStep() != want {
		t.Errorf("PacketsPerStep = %v, want %v", res.PacketsPerStep(), want)
	}
	if u := res.WorkerUtilization(); u < 0 || u > 1 {
		t.Errorf("WorkerUtilization = %v, want within [0, 1]", u)
	}
}

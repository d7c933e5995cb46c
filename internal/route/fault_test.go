package route

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/xmath"
)

// normalizeRes zeroes the wall-clock fields of a RouteResult, which are
// excluded from the determinism guarantee.
func normalizeRes(r engine.RouteResult) engine.RouteResult {
	r.Elapsed = 0
	r.WorkerBusy = 0
	return r
}

// TestFaultGreedyMatchesGreedyWithoutFaults: with a nil plan the detour
// policy must make exactly Greedy's decisions.
func TestFaultGreedyMatchesGreedyWithoutFaults(t *testing.T) {
	for _, s := range []grid.Shape{grid.New(3, 6), grid.NewTorus(3, 6)} {
		g := NewGreedy(s)
		fg := NewFaultGreedy(s, nil)
		net := engine.New(s)
		rng := xmath.NewRNG(1)
		for trial := 0; trial < 2000; trial++ {
			r := rng.Intn(s.N())
			p := net.NewPacket(0, r)
			p.Dst = rng.Intn(s.N())
			p.Class = rng.Intn(s.Dim)
			if got, want := fg.NextLink(r, p.Dst, p.Class), g.NextLink(r, p.Dst, p.Class); got != want {
				t.Fatalf("%v: FaultGreedy chose %d, Greedy chose %d (rank %d dst %d class %d)",
					s, got, want, r, p.Dst, p.Class)
			}
		}
	}
}

// TestFaultGreedyZeroStrandedAtOnePercent is the acceptance case: a full
// random permutation on the d=3, n=16 mesh with 1% permanent link
// failures completes with zero stranded packets thanks to the detours.
func TestFaultGreedyZeroStrandedAtOnePercent(t *testing.T) {
	s := grid.New(3, 16)
	f := engine.RandomFaultPlan(s, 0.01, 2026)
	if f.DownEdges() == 0 {
		t.Fatal("fault plan is empty; the test would be vacuous")
	}
	prob := perm.Random(s, xmath.NewRNG(5))
	res, net, err := RunProblem(s, prob, BatchOpts{Mode: ClassZero, Faults: f, Paranoid: true})
	if err != nil {
		t.Fatalf("faulted route failed: %v", err)
	}
	if len(res.Stranded) != 0 {
		t.Fatalf("%d packets stranded at 1%% failures; detours should deliver all of them:\nfirst: %v",
			len(res.Stranded), res.Stranded[0])
	}
	for r := 0; r < s.N(); r++ {
		for _, id := range net.Held(r) {
			p := net.Packet(id)
			if p.Dst != r {
				t.Fatalf("packet %d finished at rank %d, destination %d", p.ID, r, p.Dst)
			}
		}
	}
	if net.TotalPackets() != s.N() {
		t.Error("packet conservation violated")
	}
}

// TestPlainGreedyStrandsWhereDetourDelivers: a single failed link on a
// packet's only dimension-order path strands the monotone policy but not
// the detouring one.
func TestPlainGreedyStrandsWhereDetourDelivers(t *testing.T) {
	s := grid.New(2, 4)
	f := engine.NewFaultPlan(s)
	src := s.Rank([]int{0, 0})
	dst := s.Rank([]int{3, 0})
	f.FailLink(s.Rank([]int{1, 0}), engine.LinkFor(0, 1)) // cut the straight line

	run := func(pol engine.Policy) (engine.RouteResult, *engine.Net, error) {
		net := engine.New(s)
		p := net.NewPacket(0, src)
		p.Dst = dst
		net.Inject([]*engine.Packet{p})
		res, err := net.Route(pol, engine.RouteOpts{Faults: f, Patience: 8})
		return res, net, err
	}

	res, _, err := run(NewGreedy(s))
	if err != nil {
		t.Fatalf("plain greedy: %v", err)
	}
	if len(res.Stranded) != 1 || res.Stranded[0].Rank != s.Rank([]int{1, 0}) {
		t.Errorf("plain greedy should strand at the cut, got %v", res.Stranded)
	}

	res, net, err := run(NewFaultGreedy(s, f))
	if err != nil {
		t.Fatalf("detour greedy: %v", err)
	}
	if len(res.Stranded) != 0 || res.Delivered != 1 || len(net.Held(dst)) != 1 {
		t.Errorf("detour greedy should deliver: stranded=%v delivered=%d", res.Stranded, res.Delivered)
	}
}

// TestFaultGreedyCutDestinationStrands: no detour can reach a fully cut
// destination; the packet must strand within the patience budget with
// every wanted link reported blocked.
func TestFaultGreedyCutDestinationStrands(t *testing.T) {
	s := grid.New(3, 4)
	f := engine.NewFaultPlan(s)
	dst := s.Rank([]int{2, 2, 2})
	f.FailProcessor(dst)
	net := engine.New(s)
	p := net.NewPacket(0, 0)
	p.Dst = dst
	net.Inject([]*engine.Packet{p})
	res, err := net.Route(NewFaultGreedy(s, f), engine.RouteOpts{Faults: f})
	if err != nil {
		t.Fatalf("cut destination must degrade gracefully, got %v", err)
	}
	patience := 2*s.Diameter() + 64
	if res.Steps > patience+s.Diameter()+1 {
		t.Errorf("stranding took %d steps, want within the patience budget %d", res.Steps, patience)
	}
	if len(res.Stranded) != 1 {
		t.Fatalf("Stranded = %v, want exactly the unreachable packet", res.Stranded)
	}
	// The detour policy strands in the shell around the cut destination:
	// its profitable links may be live, leading only to nodes whose own
	// progress is blocked — so unlike the monotone case (covered in the
	// engine tests) Wants need not equal Blocked here.
	d := res.Stranded[0]
	if d.Dst != dst || d.Dist == 0 || len(d.Wants) == 0 || d.Waited <= patience {
		t.Errorf("diagnostics for the unreachable packet: %v", d)
	}
}

// TestRunProblemFaultDeterminismAcrossWorkers: the full degraded
// RouteResult and final placements are identical whether a problem runs
// alone or on concurrent workers sharing the fault plan and the problem
// (the meshsortd model: one network per runner), on mesh and torus. Run
// under -race for the memory model.
func TestRunProblemFaultDeterminismAcrossWorkers(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 1
	for _, s := range []grid.Shape{grid.New(3, 8), grid.NewTorus(3, 8)} {
		f := engine.RandomFaultPlan(s, 0.03, 11)
		prob := perm.Random(s, xmath.NewRNG(13))
		run := func() (engine.RouteResult, string) {
			res, net, err := RunProblem(s, prob, BatchOpts{
				Mode: ClassLocalRank, BlockSide: 2, Faults: f,
			})
			if err != nil {
				t.Error(err)
				return engine.RouteResult{}, ""
			}
			var fp strings.Builder
			for r := 0; r < s.N(); r++ {
				for _, id := range net.Held(r) {
					fp.WriteByte(byte(r % 251))
					fp.WriteByte(byte(net.Packet(id).ID % 251))
				}
			}
			return normalizeRes(res), fp.String()
		}
		baseRes, baseFP := run()
		res := make([]engine.RouteResult, workers)
		fps := make([]string, workers)
		var wg sync.WaitGroup
		for w := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[w], fps[w] = run()
			}()
		}
		wg.Wait()
		for w := range res {
			if !reflect.DeepEqual(res[w], baseRes) {
				t.Errorf("%v: worker %d's RouteResult differs from the solo run:\n%+v\n%+v",
					s, w, baseRes, res[w])
			}
			if fps[w] != baseFP {
				t.Errorf("%v: worker %d's final placement differs from the solo run", s, w)
			}
		}
	}
}

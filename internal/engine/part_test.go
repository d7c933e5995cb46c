package engine

import (
	"fmt"
	"reflect"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

// partPool returns a pool for a partitioned step of the given part
// count (nil for one part), closed when the test ends.
func partPool(tb testing.TB, parts int) *Pool {
	if parts <= 1 {
		return nil
	}
	p := NewPool(parts)
	tb.Cleanup(p.Close)
	return p
}

// partitioned returns a network on tp whose every step runs partitioned
// when routed with a multi-worker pool: the threshold seam is lowered to
// a single active packet.
func partitioned(tp topo.Topology) *Net {
	n := NewNet(tp)
	n.partMin = 1
	return n
}

// queueOrder renders every processor's moving queue and held list in
// order: the state a partitioned step must reproduce entry for entry.
func queueOrder(n *Net) string {
	var b []byte
	for r := range n.procs {
		pr := &n.procs[r]
		if len(pr.moving)+len(pr.held) == 0 {
			continue
		}
		b = fmt.Appendf(b, "%d:", r)
		for _, e := range pr.moving {
			b = fmt.Appendf(b, " m%d/%d/%d", e.id, e.togo, e.link)
		}
		for _, id := range pr.held {
			b = fmt.Appendf(b, " h%d", id)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// partOutcome is everything a routing phase exposes: the result (minus
// wall-clock fields), the error, the queue orders and the link loads.
type partOutcome struct {
	res    RouteResult
	err    string
	queues string
	loads  []int64
}

// partScenario is a routing phase built from a seed, so the same phase
// can be replayed on fresh networks at every part count.
type partScenario struct {
	name   string
	tp     topo.Topology
	pol    func(f *FaultPlan) Policy
	faults float64 // random link-failure rate; 0 for none
	opts   RouteOpts
	load   int  // packets
	timed  bool // two in three packets arrive mid-phase
	loads  bool // count link loads
}

func (sc partScenario) run(t *testing.T, parts int) partOutcome {
	t.Helper()
	net := partitioned(sc.tp)
	opts := sc.opts
	opts.Pool = partPool(t, parts)
	var f *FaultPlan
	if sc.faults > 0 {
		f = RandomFaultPlanTopo(sc.tp, sc.faults, 7)
		opts.Faults = f
	}
	if sc.loads {
		net.SetCountLoads(true)
	}
	var hist stats.Hist
	if sc.timed {
		opts.Sojourn = &hist
	}
	rng := xmath.NewRNG(41)
	dim := 1
	if s, ok := topo.MeshShape(sc.tp); ok {
		dim = s.Dim
	}
	var arr Arrivals
	stamp := 0
	for i := 0; i < sc.load; i++ {
		p := net.NewPacket(int64(rng.Uint64()>>1), rng.Intn(sc.tp.N()))
		p.Dst = rng.Intn(sc.tp.N())
		p.Class = rng.Intn(dim)
		if sc.timed && rng.Intn(3) != 0 {
			stamp += rng.Intn(2)
			arr.Add(int32(stamp), p)
		} else {
			net.Inject([]*Packet{p})
		}
	}
	if arr.Len() > 0 {
		opts.Arrivals = &arr
	}
	res, err := net.Route(sc.pol(f), opts)
	out := partOutcome{res: normalizeResult(res), err: fmt.Sprint(err), queues: queueOrder(net)}
	if sc.loads {
		out.loads = net.loads
	}
	return out
}

// TestPartitionedStepMatchesOnePart routes multi-word networks (so a
// step really splits into 2, 3 and 4 parts) in every engine mode and
// requires the full outcome — RouteResult with its stranded and stuck
// diagnostics and sojourn summary, the error, every queue and held list
// in order, and the link loads — to equal the one-part run's.
func TestPartitionedStepMatchesOnePart(t *testing.T) {
	mesh2 := grid.New(2, 32)
	torus3 := grid.NewTorus(3, 8)
	mesh3 := grid.New(3, 7) // odd side: the division path, 343 ranks
	clique := topo.NewClique(300)
	greedy := func(s grid.Shape) func(*FaultPlan) Policy {
		return func(*FaultPlan) Policy { return greedyTestPolicy{s} }
	}
	certified := func(s grid.Shape) func(*FaultPlan) Policy {
		return func(*FaultPlan) Policy { return certifiedGreedy{greedyTestPolicy{s}} }
	}
	detour := func(tp topo.Topology) func(*FaultPlan) Policy {
		return func(f *FaultPlan) Policy { return detourTestPolicy{tp, f} }
	}
	scenarios := []partScenario{
		{name: "mesh certified", tp: topo.FromShape(mesh2), pol: certified(mesh2), load: 3000, loads: true},
		{name: "torus timed", tp: topo.FromShape(torus3), pol: greedy(torus3), load: 1500, timed: true},
		{name: "mesh odd side faults", tp: topo.FromShape(mesh3), pol: greedy(mesh3), faults: 0.05, load: 1000, loads: true},
		{name: "mesh detours patience", tp: topo.FromShape(mesh2), pol: detour(topo.FromShape(mesh2)), faults: 0.1,
			opts: RouteOpts{Patience: 6}, load: 2000},
		{name: "mesh MaxSteps abort", tp: topo.FromShape(mesh2), pol: greedy(mesh2), opts: RouteOpts{MaxSteps: 9, Paranoid: true}, load: 2500},
		{name: "clique windows", tp: clique, pol: func(*FaultPlan) Policy { return cliqueTestPolicy{clique} }, load: 2000, loads: true, timed: true},
		{name: "clique faults", tp: clique, pol: detour(clique), faults: 0.2, opts: RouteOpts{Patience: 3}, load: 900},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.run(t, 1)
			if want.res.Steps == 0 {
				t.Fatal("scenario routed nothing")
			}
			t.Logf("%d steps, %d delivered, %d stranded, %d stuck, error %s",
				want.res.Steps, want.res.Delivered, len(want.res.Stranded), len(want.res.Stuck), want.err)
			for _, parts := range []int{2, 3, 4} {
				if got := sc.run(t, parts); !reflect.DeepEqual(got, want) {
					t.Errorf("%d parts diverged from one part:\n%+v\nwant\n%+v", parts, got.res, want.res)
					if got.queues != want.queues {
						t.Errorf("%d parts: queue order differs", parts)
					}
				}
			}
		})
	}
}

// TestPartLayout checks that the parts of every layout tile the bitmap
// words in rank order and that post's owner arithmetic names the part
// that owns each word.
func TestPartLayout(t *testing.T) {
	for _, words := range []int{1, 2, 3, 5, 7, 64, 100} {
		net := NewNet(topo.NewClique(min(words*64, 32000)))
		w := (net.N() + 63) / 64
		for parts := 1; parts <= 5; parts++ {
			st := newStepState(net, min(parts, w))
			next := 0
			for q, pt := range st.parts {
				if pt.idx != q || pt.lo != next || pt.hi <= pt.lo {
					t.Fatalf("%d words, %d parts: part %d spans [%d,%d), want a start at %d", w, parts, q, pt.lo, pt.hi, next)
				}
				next = pt.hi
				for wi := pt.lo; wi < pt.hi && len(st.parts) > 1; wi++ {
					if got := ((wi+1)*len(st.parts) - 1) / w; got != q {
						t.Fatalf("%d words, %d parts: word %d owned by part %d, post picks %d", w, parts, wi, q, got)
					}
				}
			}
			if next != w {
				t.Fatalf("%d words, %d parts: parts end at word %d", w, parts, next)
			}
		}
	}
}

// TestWorkerBusyIsMeanPartTime pins the engine's layer split: a
// partitioned step adds the mean of its parts' kernel times to
// WorkerBusy, so the gap to Elapsed is imbalance plus barrier wait, and
// a one-part step adds its own kernel time.
func TestWorkerBusyIsMeanPartTime(t *testing.T) {
	net := NewNet(topo.NewClique(256))
	st := newStepState(net, 4)
	for q, pt := range st.parts {
		pt.busy = int64(10 * (q + 1)) // 10, 20, 30, 40
	}
	if _, err := st.gather(st.parts); err != nil {
		t.Fatal(err)
	}
	if st.busy != 25 {
		t.Fatalf("partitioned step added %d ns of kernel time, want the mean 25", st.busy)
	}
	st.solo.busy = 7
	st.gather(st.soloSet)
	if st.busy != 32 {
		t.Fatalf("one-part step added %d ns, want its own 7", st.busy-25)
	}

	// End to end: both layouts report a kernel share of the wall time.
	s := grid.New(2, 32)
	for _, parts := range []int{1, 2} {
		n := partitioned(topo.FromShape(s))
		dsts := xmath.NewRNG(3).Perm(s.N())
		for i := 0; i < s.N(); i++ {
			p := n.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			n.Inject([]*Packet{p})
		}
		res, err := n.Route(greedyTestPolicy{s}, RouteOpts{Pool: partPool(t, parts)})
		if err != nil {
			t.Fatal(err)
		}
		if u := res.WorkerUtilization(); res.WorkerBusy <= 0 || u <= 0 || u > 1 {
			t.Errorf("%d parts: WorkerBusy %v of Elapsed %v (util %.3f), want a share in (0,1]", parts, res.WorkerBusy, res.Elapsed, u)
		}
	}
}

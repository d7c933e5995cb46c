package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

// This file holds the engine's executable specification: a deliberately
// naive synchronous simulator of the paper's machine, written from the
// model and not from the kernel. Distances are always recomputed from
// the topology, so monotone and detouring policies need no separate
// accounting. Packets live in a map keyed by id; each
// step every processor asks the policy for every waiting packet's link
// afresh, grants each link to the farthest-to-go requester (lowest id on
// ties), drops grants on links the fault plan has down, and moves all
// winners at once. No bitmaps, no queue slabs, no cached links, no fast
// paths. FuzzEngineMatchesReference holds the optimised kernel to it.

// refPacket is one packet of the reference simulation.
type refPacket struct {
	id, src, dst, class int
	key                 int64
	stamp               int // arrival clock; -1 for a packet injected before the phase
	pos                 int
	born, bornDist      int // activation clock and distance
	best, stall         int // patience accounting
	state               int // refUnborn, refHeld or refMoving
}

const (
	refUnborn = iota
	refHeld
	refMoving
)

// referenceRoute simulates one routing phase of the packets on the
// topology from clock 0 and returns what Net.Route must return: the
// result (wall-clock fields zero), the final placement, and the error.
// A non-nil loads map counts traversals per (rank, link).
func referenceRoute(tp topo.Topology, pol Policy, opts RouteOpts, pkts map[int]*refPacket, loads map[[2]int]int64) (RouteResult, map[int]int, error) {
	var res RouteResult
	diam := tp.Diameter()
	patience := opts.Patience
	if patience == 0 {
		patience = -1
		if opts.Faults != nil {
			patience = 2*diam + 64
		}
	}
	patience = max(patience, 0)
	watchdog := opts.NoProgress
	if watchdog == 0 {
		watchdog = max(4*diam+64, 2*patience)
	}
	ids := make([]int, 0, len(pkts)) // every id, ascending
	for id := range pkts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	clock, steps := 0, 0
	occupancy := func() int {
		count := map[int]int{}
		for _, p := range pkts {
			if p.state != refUnborn {
				count[p.pos]++
			}
		}
		most := 0
		for _, c := range count {
			most = max(most, c)
		}
		return most
	}
	activate := func(p *refPacket) {
		p.pos, p.state = p.src, refHeld
		if p.dst != p.src {
			d := tp.Dist(p.src, p.dst)
			p.state, p.born, p.bornDist, p.best, p.stall = refMoving, clock, d, d, 0
			res.MaxDist = max(res.MaxDist, d)
		}
	}
	count := func(state int) (n, togo int) {
		for _, p := range pkts {
			if p.state == state {
				n++
				togo += tp.Dist(p.pos, p.dst)
			}
		}
		return n, togo
	}
	pending := func() (n, next int) {
		next = -1
		for _, id := range ids {
			if p := pkts[id]; p.state == refUnborn {
				if n++; next < 0 || p.stamp < next {
					next = p.stamp
				}
			}
		}
		return n, next
	}
	diagnose := func(p *refPacket) PacketDiag {
		d := PacketDiag{ID: p.id, Key: p.key, Rank: p.pos, Dst: p.dst, Dist: tp.Dist(p.pos, p.dst), Waited: p.stall}
		for l := 0; l < tp.Links(); l++ {
			if recv, ok := tp.Neighbor(p.pos, l); ok && tp.Dist(recv, p.dst) < d.Dist {
				d.Wants = append(d.Wants, l)
				if opts.Faults.LinkDown(p.pos, l, clock) {
					d.Blocked = append(d.Blocked, l)
				}
			}
		}
		return d
	}
	placement := func() map[int]int {
		out := map[int]int{}
		for id, p := range pkts {
			if p.state != refUnborn {
				out[id] = p.pos
			}
		}
		return out
	}

	for _, id := range ids {
		if p := pkts[id]; p.stamp < 0 {
			activate(p)
		}
	}
	if active, _ := count(refMoving); active == 0 {
		if unborn, _ := pending(); unborn == 0 {
			return res, placement(), nil
		}
	}
	res.MaxQueue = occupancy()
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		// The default budget stretches past the last arrival.
		maxSteps = 64*diam + 1024
		for _, p := range pkts {
			maxSteps = max(maxSteps, 64*diam+1024+p.stamp)
		}
	}
	_, bestTotal := count(refMoving)
	lastImprove := 0
	arrive := func() {
		due := 0
		for _, id := range ids {
			if p := pkts[id]; p.state == refUnborn && p.stamp <= clock {
				activate(p)
				if p.state == refMoving {
					due++
				}
			}
		}
		res.MaxQueue = max(res.MaxQueue, occupancy())
		if due > 0 {
			_, bestTotal = count(refMoving)
			lastImprove = steps
		}
	}
	arrive()
	var err error
	abort := func(reason string) {
		for _, id := range ids {
			if p := pkts[id]; p.state == refMoving {
				res.Stuck = append(res.Stuck, diagnose(p))
			}
		}
		sort.Slice(res.Stuck, func(i, j int) bool {
			a, b := res.Stuck[i], res.Stuck[j]
			return a.Rank < b.Rank || (a.Rank == b.Rank && a.ID < b.ID)
		})
		active, _ := count(refMoving)
		unborn, _ := pending()
		err = &DegradedError{Reason: reason, Steps: steps, Undelivered: active + unborn, Stranded: len(res.Stranded), Stuck: res.Stuck}
	}
	for {
		active, _ := count(refMoving)
		unborn, next := pending()
		if active == 0 && unborn == 0 {
			break
		}
		if steps >= maxSteps {
			abort(fmt.Sprintf("exceeded %d steps", maxSteps))
			break
		}
		if unborn > 0 {
			if active == 0 && next > clock {
				steps += next - clock
				clock = next
			}
			arrive()
			if active, _ = count(refMoving); active == 0 {
				continue
			}
		}
		clock++
		steps++
		// Every processor contests its links among the packets that were
		// moving when the step began; then all winners move at once.
		requests := map[[2]int][]*refPacket{} // (rank, link) -> requesters
		var strands []*refPacket
		for _, id := range ids {
			p := pkts[id]
			if p.state != refMoving {
				continue
			}
			if patience > 0 {
				if d := tp.Dist(p.pos, p.dst); d < p.best {
					p.best, p.stall = d, 0
				} else {
					p.stall++
				}
				if p.stall > patience {
					strands = append(strands, p)
					continue
				}
			}
			if l := pol.NextLink(p.pos, p.dst, p.class); l >= 0 {
				requests[[2]int{p.pos, l}] = append(requests[[2]int{p.pos, l}], p)
			}
		}
		type move struct {
			p    *refPacket
			recv int
		}
		var moves []move
		for rl, reqs := range requests {
			if opts.Faults.LinkDown(rl[0], rl[1], clock) {
				continue
			}
			win := reqs[0]
			for _, p := range reqs[1:] {
				if dp, dw := tp.Dist(p.pos, p.dst), tp.Dist(win.pos, win.dst); dp > dw || (dp == dw && p.id < win.id) {
					win = p
				}
			}
			recv, _ := tp.Neighbor(rl[0], rl[1])
			moves = append(moves, move{win, recv})
			if loads != nil {
				loads[rl]++
			}
		}
		for _, p := range strands {
			res.Stranded = append(res.Stranded, diagnose(p))
			p.state = refHeld
		}
		for _, m := range moves {
			m.p.pos = m.recv
			res.Hops++
			if m.recv == m.p.dst {
				m.p.state = refHeld
				res.Delivered++
				over := clock - m.p.born - m.p.bornDist
				res.SumOvershoot += int64(over)
				res.MaxOvershoot = max(res.MaxOvershoot, over)
				if opts.Sojourn != nil {
					opts.Sojourn.Observe(int64(clock - m.p.born))
				}
			}
		}
		res.MaxQueue = max(res.MaxQueue, occupancy())
		if _, total := count(refMoving); total < bestTotal {
			bestTotal, lastImprove = total, steps
		} else if watchdog > 0 && steps-lastImprove >= watchdog {
			abort(fmt.Sprintf("made no progress for %d steps", watchdog))
			break
		}
	}
	res.Steps = steps
	if opts.Sojourn != nil {
		res.Sojourn = opts.Sojourn.Summary()
	}
	return res, placement(), err
}

// certifiedGreedy is greedyTestPolicy certifying itself as the
// dimension-order greedy scheme, which routes the kernel through its
// inline greedy resolution.
type certifiedGreedy struct{ greedyTestPolicy }

func (g certifiedGreedy) GreedyShape() (grid.Shape, bool) { return g.s, true }

// detourTestPolicy takes the first live profitable link in class
// rotation order and otherwise sidesteps over the first live link. It is
// pure (permanent faults only), works on any topology, and can ping-pong
// forever — exactly what patience and the watchdog exist for.
type detourTestPolicy struct {
	tp topo.Topology
	f  *FaultPlan
}

func (p detourTestPolicy) Detours() bool { return true }

func (p detourTestPolicy) NextLink(rank, dst, class int) int {
	if rank == dst {
		return -1
	}
	links, cur, side := p.tp.Links(), p.tp.Dist(rank, dst), -1
	for i := 0; i < links; i++ {
		l := (class + i) % links
		recv, ok := p.tp.Neighbor(rank, l)
		if !ok || p.f.PermDown(rank, l) {
			continue
		}
		if p.tp.Dist(recv, dst) < cur {
			return l
		}
		if side < 0 {
			side = l
		}
	}
	return side
}

// FuzzEngineMatchesReference is the differential check of the step
// kernel against referenceRoute. It draws a small mesh, torus or clique
// (cliques up to 80 nodes, so contests span two 64-link windows), a
// policy (plain, certified-greedy or detouring), a fault plan (none,
// permanent, or permanent plus transient outages), patience, watchdog
// and step budgets, batch packets and timed arrivals (some born at their
// destination), and requires Net.Route's RouteResult (steps, delivered,
// hops, overshoot, MaxQueue, stranded and stuck diagnostics, sojourn
// summary), error, Snapshot and, when counting is on, per-link loads to
// equal the reference's.
//
//	go test -run '^$' -fuzz FuzzEngineMatchesReference -fuzztime 60s ./internal/engine
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		shape uint16
		mode  uint8
		seed  uint64
		load  uint8
		steps uint16
	}{
		{shape: 42, mode: 0, seed: 1, load: 90},                      // 3-d mesh, side 6
		{shape: 31, mode: 1, seed: 2, load: 200},                     // 2-d torus, side 5, certified greedy
		{shape: 1, mode: 0, seed: 3, load: 7},                        // 1-d torus, side 2: the double edge
		{shape: 212, mode: 0, seed: 12, load: 255},                   // clique of 72: two link windows, loads on
		{shape: 62, mode: 2 | 4 | 16, seed: 5, load: 60},             // faulted clique of 22, detours, arrivals
		{shape: 30, mode: 2, seed: 9, load: 170},                     // 2-d mesh, side 5, faults: default patience strands
		{shape: 39, mode: 2 | 8 | 16 | 32, seed: 6, load: 150},       // 2-d mesh, side 6, outages, paranoid, arrivals
		{shape: 16, mode: 2 | 4 | 128, seed: 7, load: 120},           // 3-d torus, side 3, detours, small patience
		{shape: 24, mode: 4 | 64, seed: 8, load: 80, steps: 1 + 4*9}, // 3-d mesh, side 4, patience off, MaxSteps abort
	} {
		f.Add(seed.shape, seed.mode, seed.seed, seed.load, seed.steps)
	}
	// shape%3 picks mesh, torus or clique; a clique has 2 + (shape/3)%79
	// nodes, a mesh or torus dimension 1 + (shape/3)%3 and side
	// 2 + (shape/9)%5. mode's bits: certified greedy, faults, detours,
	// outages, timed arrivals, paranoid, and two for patience.
	f.Fuzz(func(t *testing.T, shape uint16, mode uint8, seed uint64, load uint8, steps uint16) {
		var tp topo.Topology
		var pol Policy
		dim := 1
		switch shape % 3 {
		case 2:
			c := topo.NewClique(2 + int(shape/3)%79)
			tp, pol = c, cliqueTestPolicy{c}
		default:
			dim = 1 + int(shape/3)%3
			s := grid.Shape{Dim: dim, Side: 2 + int(shape/9)%5, Torus: shape%3 == 1}
			tp, pol = topo.FromShape(s), greedyTestPolicy{s}
			if mode&1 != 0 {
				pol = certifiedGreedy{greedyTestPolicy{s}}
			}
		}
		rng := xmath.NewRNG(seed)
		var opts RouteOpts
		if mode&2 != 0 {
			opts.Faults = RandomFaultPlanTopo(tp, 0.1, seed)
			if mode&8 != 0 {
				for i := 0; i < 1+tp.N()/4; i++ {
					r, l := rng.Intn(tp.N()), rng.Intn(tp.Links())
					if _, _, ok := tp.Reverse(r, l); ok {
						from := rng.Intn(20)
						opts.Faults.Outage(r, l, from, from+1+rng.Intn(20))
					}
				}
			}
		}
		if mode&4 != 0 {
			pol = detourTestPolicy{tp, opts.Faults}
		}
		opts.Paranoid = mode&32 != 0
		switch mode >> 6 {
		case 1:
			opts.Patience = -1
		case 2:
			opts.Patience = 1 + int(seed%8)
		}
		if steps%4 != 0 {
			opts.MaxSteps = int(steps/4) % 200
		}
		if steps%3 == 1 {
			opts.NoProgress = 1 + int(steps/3)%40
		}
		var hist, refHist stats.Hist
		if seed%2 == 0 {
			opts.Sojourn = &hist
		}

		net := NewNet(tp)
		var loads map[[2]int]int64
		if seed%3 == 0 {
			net.SetCountLoads(true)
			loads = map[[2]int]int64{}
		}
		ref := map[int]*refPacket{}
		var arr Arrivals
		stamp := 0
		for i := 0; i < 1+int(load)*tp.N()/85; i++ {
			p := net.NewPacket(int64(rng.Uint64()>>1), rng.Intn(tp.N()))
			p.Dst = rng.Intn(tp.N())
			p.Class = rng.Intn(dim)
			rp := &refPacket{id: p.ID, key: p.Key, src: p.Src, dst: p.Dst, class: p.Class, stamp: -1}
			if mode&16 != 0 && rng.Intn(3) != 0 {
				stamp += rng.Intn(4)
				arr.Add(int32(stamp), p)
				rp.stamp = stamp
			} else {
				net.Inject([]*Packet{p})
			}
			ref[p.ID] = rp
		}
		if arr.Len() > 0 {
			opts.Arrivals = &arr
		}
		res, err := net.Route(pol, opts)
		got := net.Snapshot()

		opts.Arrivals = nil
		if opts.Sojourn != nil {
			opts.Sojourn = &refHist
		}
		want, wantPlace, wantErr := referenceRoute(tp, pol, opts, ref, loads)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%v: error %v, reference %v", tp, err, wantErr)
		}
		if de, ok := err.(*DegradedError); ok && !reflect.DeepEqual(de, wantErr) {
			t.Fatalf("%v: degraded error\n%+v\nreference\n%+v", tp, de, wantErr)
		}
		if res = normalizeResult(res); !reflect.DeepEqual(res, want) {
			t.Fatalf("%v: result\n%+v\nreference\n%+v", tp, res, want)
		}
		if !reflect.DeepEqual(got, wantPlace) {
			t.Fatalf("%v: placement differs from the reference", tp)
		}
		for r := 0; loads != nil && r < tp.N(); r++ {
			for l := 0; l < tp.Links(); l++ {
				if got, want := net.LinkLoad(r, l), loads[[2]int{r, l}]; got != want {
					t.Fatalf("%v: link %d of rank %d carried %d packets, reference %d", tp, l, r, got, want)
				}
			}
		}
	})
}

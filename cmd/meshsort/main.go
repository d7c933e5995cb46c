// Command meshsort runs one of the paper's algorithms on a configurable
// network and prints per-phase statistics.
//
// Usage:
//
//	meshsort -alg simple -d 3 -n 16 -b 4
//	meshsort -alg torus -d 3 -n 16 -b 8 -seed 7
//	meshsort -alg route -d 3 -n 16 -b 4
//	meshsort -alg select -d 3 -n 16 -b 4
//	meshsort -alg greedyroute -d 3 -n 16 -faults 0.01 -fault-seed 7
//	meshsort -alg cliqueroute -n 128 -k 4
//	meshsort -alg traffic -d 3 -n 16 -load "lk:l=2,k=4" -inject window:128
//
// -topo selects the network topology: mesh (default), torus (the same
// as -torus), or clique — the congested clique, where -n is the node
// count, -d is ignored, and the only algorithm is cliqueroute (greedy
// direct routing of a random k-relation, delivered in at most k steps).
//
// The -faults flag injects a deterministic random fault plan (a
// fraction of the links permanently failed) and switches routing to the
// fault-aware detouring policy; see the engine package docs for the
// fault model. -patience and -paranoid expose the engine's stranding
// budget and invariant checker.
//
// Algorithms: simple (Thm 3.1), copy (Thm 3.2), torussort (Thm 3.3),
// full (the 2D baseline), oddeven (transposition-sort baseline), shear
// (whole-mesh shearsort baseline), route (two-phase permutation
// routing, Thm 5.1/5.2), greedyroute (baseline; -policy picks its
// routing policy), cliqueroute (clique k-relation), traffic (timed
// many-to-many injection — -load picks the demand model, -inject the
// arrival schedule, and the report carries per-packet sojourn
// percentiles), select (Section 4.3).
//
// -trace emits one JSON line per completed pipeline phase (name, kind,
// steps, bound, max queue, throughput) to stderr, straight from the
// phase observer the runner threads through every algorithm.
//
// -json replaces the text report with a single JSON object on stdout —
// the same service.Result encoding the meshsortd HTTP API serves, so
// scripts can consume CLI runs and service responses with one parser.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/service"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

func main() {
	var (
		alg    = flag.String("alg", "simple", "algorithm: simple|copy|torussort|full|oddeven|shear|route|greedyroute|cliqueroute|traffic|select")
		d      = flag.Int("d", 3, "dimension (ignored on the clique)")
		n      = flag.Int("n", 16, "side length (clique: node count)")
		b      = flag.Int("b", 4, "block side length")
		k      = flag.Int("k", 1, "packets per processor (simple and cliqueroute)")
		torus  = flag.Bool("torus", false, "use a torus instead of a mesh")
		tpo    = flag.String("topo", "", "topology: mesh|torus|clique (\"\" = mesh, or torus with -torus)")
		policy = flag.String("policy", "", "greedyroute policy override: greedy|dimorder (\"\" = the topology default)")
		seed   = flag.Uint64("seed", 1, "random seed")
		real   = flag.Bool("real", false, "simulate local sorts in-mesh (shearsort) instead of charging the cost model")
		alt    = flag.Bool("alt", false, "use the bias-corrected destination estimator (ablation E13)")
		work   = flag.Int("workers", 0, "local-phase block workers (0 = GOMAXPROCS); routing runs on one goroutine")
		pperm  = flag.String("perm", "random", "permutation for routing algorithms: random|reversal|transpose|hotspot")
		load   = flag.String("load", "", "traffic demand for -alg traffic: perm|k:<k>|lk:l=<l>,k=<k>|hotspot:frac=<f>,targets=<t>|partial:frac=<f> (\"\" = perm)")
		inject = flag.String("inject", "", "arrival schedule for -alg traffic: batch|window:<span>|trickle:<rate> (\"\" = batch)")
		heat   = flag.Bool("heat", false, "print an ASCII congestion heatmap after greedyroute (2-d meshes only)")
		mode   = flag.String("classes", "local", "greedyroute class assignment: zero|random|local (zero = plain greedy)")

		jsonOut = flag.Bool("json", false, "emit the final result as one JSON object on stdout instead of the text report")

		faults   = flag.Float64("faults", 0, "fraction of links to fail permanently (fault injection; 0 = perfect network)")
		fseed    = flag.Uint64("fault-seed", 1, "seed of the random fault plan")
		patience = flag.Int("patience", 0, "steps without progress before a packet is stranded (0 = auto when faults are on, negative = never)")
		paranoid = flag.Bool("paranoid", false, "run the engine's per-step invariant checker (slow)")
		trace    = flag.Bool("trace", false, "emit one JSON line per completed pipeline phase to stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer stopProfiles()

	// Resolve the topology: -topo torus is the same network as -torus,
	// and the clique (either spelling: -topo clique or -alg cliqueroute)
	// has no mesh parameters at all.
	clique := *tpo == "clique" || *alg == "cliqueroute"
	switch *tpo {
	case "", "mesh", "torus", "clique":
	default:
		fail(fmt.Errorf("unknown topology %q (mesh|torus|clique)", *tpo))
	}
	switch {
	case clique && *alg != "cliqueroute":
		fail(fmt.Errorf("the clique topology runs -alg cliqueroute only (got %q)", *alg))
	case clique && (*torus || *tpo == "mesh" || *tpo == "torus"):
		fail(fmt.Errorf("cliqueroute runs on the clique; drop -torus / -topo %s", *tpo))
	case *tpo == "torus":
		*torus = true
	case *tpo == "mesh" && (*torus || *alg == "torussort"):
		fail(fmt.Errorf("-topo mesh conflicts with a torus algorithm or -torus"))
	}
	if *policy != "" && *alg != "greedyroute" {
		fail(fmt.Errorf("-policy applies to -alg greedyroute only"))
	}
	if (*load != "" || *inject != "") && *alg != "traffic" {
		fail(fmt.Errorf("-load and -inject apply to -alg traffic only"))
	}

	// One persistent worker pool serves every local phase of the run.
	pool := engine.NewPool(*work)
	defer pool.Close()
	var obs pipeline.Observer
	if *trace {
		obs = tracePhases
	}
	// -json needs the phase stats of the algorithms whose result types
	// do not carry them (shear, greedyroute, cliqueroute); collect via
	// the observer.
	var collected []pipeline.PhaseStat
	if *jsonOut {
		prev := obs
		obs = func(ph pipeline.PhaseStat) {
			collected = append(collected, ph)
			if prev != nil {
				prev(ph)
			}
		}
	}

	if clique {
		runCliqueRoute(*n, max(1, *k), *seed, *faults, *fseed, *jsonOut, route.BatchOpts{
			Pool:     pool,
			Patience: *patience, Paranoid: *paranoid, Observer: obs,
		})
		return
	}

	var shape grid.Shape
	if *torus || *alg == "torussort" {
		shape = grid.NewTorus(*d, *n)
	} else {
		shape = grid.New(*d, *n)
	}
	fo := core.FaultOpts{Patience: *patience, Paranoid: *paranoid}
	if *faults > 0 {
		fo.Faults = engine.RandomFaultPlan(shape, *faults, *fseed)
	}
	cfg := core.Config{Shape: shape, BlockSide: *b, K: *k, Seed: *seed,
		RealLocalSort: *real, AltEstimator: *alt, Pool: pool, Observer: obs, FaultOpts: fo}
	keys := core.RandomKeys(shape, max(1, *k), *seed+1)
	D := shape.Diameter()
	if !*jsonOut {
		fmt.Printf("%v: N=%d D=%d block=%d\n", shape, shape.N(), D, *b)
		if fo.Faults != nil {
			fmt.Printf("fault injection: %v\n", fo.Faults)
		}
	}

	switch *alg {
	case "simple", "copy", "torussort", "full":
		var res core.Result
		var err error
		switch *alg {
		case "simple":
			res, err = core.SimpleSort(cfg, keys)
		case "copy":
			res, err = core.CopySort(cfg, keys)
		case "torussort":
			res, err = core.TorusSort(cfg, keys)
		case "full":
			res, err = core.FullSort(cfg, keys)
		}
		fail(err)
		if *jsonOut {
			emitJSON(service.FromSort(res))
			break
		}
		printSort(res)
	case "oddeven":
		res, err := baseline.RunOddEven(shape, keys)
		fail(err)
		if *jsonOut {
			emitJSON(service.Result{Algorithm: "oddeven", Shape: shape.String(),
				N: shape.N(), Diameter: D, Delivered: res.Sorted, Sorted: res.Sorted,
				TotalSteps: res.Rounds, RouteSteps: res.Rounds,
				Phases: []service.PhaseTrace{}})
			break
		}
		fmt.Printf("odd-even transposition: %d rounds (= steps), sorted=%v, %.2f x diameter\n",
			res.Rounds, res.Sorted, float64(res.Rounds)/float64(D))
	case "shear":
		res, err := baseline.ShearSort(shape, keys, baseline.ShearSortOpts{Pool: pool, Observer: obs})
		fail(err)
		if *jsonOut {
			emitJSON(service.Result{Algorithm: "shearsort", Shape: shape.String(),
				N: shape.N(), Diameter: D, Delivered: res.Sorted, Sorted: res.Sorted,
				TotalSteps: res.Steps, RouteSteps: res.Steps, MergeRounds: res.Iterations,
				Phases: phaseTraces(collected)})
			break
		}
		fmt.Printf("whole-mesh shearsort: %d steps (%.2f x D), sorted=%v, %d iterations, %d fallback rounds\n",
			res.Steps, float64(res.Steps)/float64(D), res.Sorted, res.Iterations, res.Fallback)
	case "route":
		prob := pickPerm(*pperm, shape, *seed)
		res, err := core.TwoPhaseRoute(core.RouteConfig{Shape: shape, BlockSide: *b, Seed: *seed,
			Pool: pool, Observer: obs, FaultOpts: fo}, prob)
		fail(err)
		if *jsonOut {
			emitJSON(service.FromRouteAlg(res, shape))
			break
		}
		fmt.Printf("two-phase routing: %d routing steps (bound D+2nu = %d), nu=%d effective=%d, delivered=%v",
			res.RouteSteps, res.Bound, res.Nu, res.EffectiveNu, res.Delivered)
		if res.Stranded > 0 {
			fmt.Printf(", stranded=%d", res.Stranded)
		}
		fmt.Println()
		for _, ph := range res.Phases {
			printPhase(ph)
		}
	case "greedyroute":
		prob := pickPerm(*pperm, shape, *seed)
		cm := route.ClassLocalRank
		switch *mode {
		case "zero":
			cm = route.ClassZero
		case "random":
			cm = route.ClassRandom
		}
		var pol engine.Policy
		switch *policy {
		case "":
			// DefaultPolicy: greedy, or its fault-aware variant.
		case "greedy":
			pol = route.NewGreedy(shape)
		case "dimorder":
			pol = route.NewDimOrder(topo.FromShape(shape))
		default:
			fail(fmt.Errorf("unknown policy %q (greedy|dimorder)", *policy))
		}
		res, net, err := route.RunProblem(shape, prob, route.BatchOpts{
			Mode: cm, BlockSide: *b, Seed: *seed, Pool: pool,
			Faults: fo.Faults, Patience: fo.Patience, Paranoid: fo.Paranoid,
			CountLoads: *heat, Observer: obs, Policy: pol,
		})
		fail(err)
		if *jsonOut {
			emitJSON(service.Result{Algorithm: "greedyroute", Shape: shape.String(),
				N: shape.N(), Diameter: D, Delivered: len(res.Stranded) == 0,
				TotalSteps: res.Steps, RouteSteps: res.Steps, MaxQueue: res.MaxQueue,
				Stranded: len(res.Stranded), Phases: phaseTraces(collected)})
			break
		}
		fmt.Printf("greedy routing of %s: %d steps (D=%d), max overshoot %d, max queue %d",
			prob.Name, res.Steps, D, res.MaxOvershoot, res.MaxQueue)
		if len(res.Stranded) > 0 {
			fmt.Printf(", stranded %d", len(res.Stranded))
		}
		fmt.Println()
		for i, d := range res.Stranded {
			if i == 4 {
				fmt.Printf("  ... and %d more\n", len(res.Stranded)-i)
				break
			}
			fmt.Printf("  stranded: %v\n", d)
		}
		if *heat {
			printHeatmap(net)
		}
	case "traffic":
		ld, err := traffic.ParseLoad(*load)
		fail(err)
		sc, err := traffic.ParseSchedule(*inject)
		fail(err)
		// Distinct seeded streams: changing the schedule never reshuffles
		// the demand (matches the service's alg=traffic compilation).
		ld.Seed = *seed
		sc.Seed = *seed + 1
		runner := pipeline.New(pipeline.Config{Shape: shape, Pool: pool})
		res, net, err := route.RunTimedLoad(topo.FromShape(shape), ld, sc, route.BatchOpts{
			Pool:   pool,
			Faults: fo.Faults, Patience: fo.Patience, Paranoid: fo.Paranoid,
			Observer: obs, Runner: runner,
		})
		fail(err)
		delivered := true
		net.ForEachHeld(func(rank int, p *engine.Packet) {
			if p.Dst != rank {
				delivered = false
			}
		})
		if *jsonOut {
			emitJSON(service.FromTraffic(res, runner.Totals(), shape, delivered))
			break
		}
		soj := res.Sojourn
		fmt.Printf("timed traffic %s under %s: %d packets in %d steps, delivered=%v, max queue %d",
			ld, sc, soj.Count, res.Steps, delivered, res.MaxQueue)
		if len(res.Stranded) > 0 {
			fmt.Printf(", stranded %d", len(res.Stranded))
		}
		fmt.Println()
		fmt.Printf("  sojourn (injection to delivery): p50=%d p95=%d p99=%d max=%d steps\n",
			soj.P50, soj.P95, soj.P99, soj.Max)
	case "select":
		res, err := core.Select(cfg, keys, shape.N()/2)
		fail(err)
		if *jsonOut {
			emitJSON(service.FromSelect(res, shape))
			break
		}
		fmt.Printf("selection: median=%d correct=%v, %d routing steps (%.2f D), %d candidates\n",
			res.Value, res.Correct, res.RouteSteps, float64(res.RouteSteps)/float64(D), res.Candidates)
		for _, ph := range res.Phases {
			printPhase(ph)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		stopProfiles()
		os.Exit(2)
	}
}

// runCliqueRoute is the -alg cliqueroute path: greedy direct routing
// of a random k-relation on the congested clique. Every node has a
// direct link to every other, so the run takes at most k steps (each
// directed link carries at most k packets, one per step) — the bound
// the experiment table compares against the mesh theorems' D + o(n).
func runCliqueRoute(n, k int, seed uint64, faults float64, fseed uint64, jsonOut bool, opts route.BatchOpts) {
	if n < 2 || n > 32768 {
		fail(fmt.Errorf("clique size n=%d out of range [2,32768]", n))
	}
	c := topo.NewClique(n)
	if faults > 0 {
		opts.Faults = engine.RandomFaultPlanTopo(c, faults, fseed)
	}
	if !jsonOut {
		fmt.Printf("%v: N=%d D=%d\n", c, c.N(), c.Diameter())
		if opts.Faults != nil {
			fmt.Printf("fault injection: %v\n", opts.Faults)
		}
	}
	// Route on an explicit runner so the -json report can be built by
	// the same service constructor the HTTP API uses (one encoding, one
	// parser; see TestCliqueJSONMatchesService).
	runner := pipeline.New(pipeline.Config{Topo: c, Pool: opts.Pool})
	opts.Runner = runner
	prob := perm.RandomRanksK(n, k, xmath.NewRNG(seed))
	res, net, err := route.RunTopoProblem(c, prob, opts)
	fail(err)
	delivered := true
	net.ForEachHeld(func(rank int, p *engine.Packet) {
		if p.Dst != rank {
			delivered = false
		}
	})
	if jsonOut {
		emitJSON(service.FromCliqueRoute(res, runner.Totals(), c, k, delivered))
		return
	}
	fmt.Printf("clique greedy routing of a %d-relation: %d steps (bound k=%d), delivered=%v, max queue %d",
		k, res.Steps, k, delivered, res.MaxQueue)
	if len(res.Stranded) > 0 {
		fmt.Printf(", stranded %d", len(res.Stranded))
	}
	fmt.Println()
}

// emitJSON writes the -json report: exactly one JSON object on
// stdout, in the same encoding internal/service serves over HTTP.
func emitJSON(res service.Result) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
}

func phaseTraces(phases []pipeline.PhaseStat) []service.PhaseTrace {
	out := make([]service.PhaseTrace, len(phases))
	for i, ph := range phases {
		out[i] = service.TracePhase(ph)
	}
	return out
}

func printSort(res core.Result) {
	D := res.Diameter()
	fmt.Printf("%s: sorted=%v\n", res.Algorithm, res.Sorted)
	fmt.Printf("  routing steps: %d  (%.3f x D)\n", res.RouteSteps, res.RouteRatio())
	fmt.Printf("  local (o(n))-charged steps: %d\n", res.OracleSteps)
	fmt.Printf("  total: %d (%.3f x D), merge rounds: %d, max queue: %d\n",
		res.TotalSteps, res.TotalRatio(), res.MergeRounds, res.MaxQueue)
	if res.Stranded > 0 {
		fmt.Printf("  stranded: %d packets parked by the patience budget (degraded run)\n", res.Stranded)
	}
	if res.MaxPairDist > 0 {
		fmt.Printf("  max pair distance after center sort: %d (%.3f x D; Lemma 3.3/3.4 bound ~0.5)\n",
			res.MaxPairDist, float64(res.MaxPairDist)/float64(D))
	}
	for _, ph := range res.Phases {
		printPhase(ph)
	}
}

// tracePhases is the -trace observer: one JSON line per completed
// pipeline phase, written to stderr so it composes with the normal
// stdout report.
func tracePhases(ph pipeline.PhaseStat) {
	var soj *stats.LatencySummary
	if ph.Sojourn.Count > 0 {
		s := ph.Sojourn
		soj = &s
	}
	line, err := json.Marshal(struct {
		Name           string                `json:"name"`
		Kind           string                `json:"kind"`
		Steps          int                   `json:"steps"`
		Bound          int                   `json:"bound,omitempty"`
		MaxDist        int                   `json:"maxDist,omitempty"`
		MaxQueue       int                   `json:"maxQueue,omitempty"`
		Stranded       int                   `json:"stranded,omitempty"`
		StepsPerSec    float64               `json:"stepsPerSec,omitempty"`
		PacketsPerStep float64               `json:"packetsPerStep,omitempty"`
		WorkerUtil     float64               `json:"workerUtil,omitempty"`
		Sojourn        *stats.LatencySummary `json:"sojourn,omitempty"`
	}{
		Name: ph.Name, Kind: ph.Kind, Steps: ph.Steps, Bound: ph.Bound,
		MaxDist: ph.MaxDist, MaxQueue: ph.MaxQueue, Stranded: ph.Stranded,
		StepsPerSec:    ph.StepsPerSec,
		PacketsPerStep: ph.PacketsPerStep,
		WorkerUtil:     ph.WorkerUtil,
		Sojourn:        soj,
	})
	if err != nil {
		return
	}
	fmt.Fprintln(os.Stderr, string(line))
}

func printPhase(ph core.PhaseStat) {
	if ph.Kind == "route" {
		stranded := ""
		if ph.Stranded > 0 {
			stranded = fmt.Sprintf(" stranded=%d", ph.Stranded)
		}
		fmt.Printf("  phase %-22s %5d steps  maxdist=%d overshoot=%d maxqueue=%d%s\n",
			ph.Name, ph.Steps, ph.MaxDist, ph.MaxOvershoot, ph.MaxQueue, stranded)
	} else {
		fmt.Printf("  phase %-22s %5d steps  (charged %s)\n", ph.Name, ph.Steps, ph.Kind)
	}
}

// pickPerm builds the requested routing problem.
func pickPerm(name string, shape grid.Shape, seed uint64) perm.Problem {
	switch name {
	case "random":
		return perm.Random(shape, xmath.NewRNG(seed))
	case "reversal":
		return perm.Reversal(shape)
	case "transpose":
		return perm.Transpose(shape)
	case "hotspot":
		return perm.HotSpot(shape)
	}
	fmt.Fprintf(os.Stderr, "unknown permutation %q\n", name)
	stopProfiles()
	os.Exit(2)
	return perm.Problem{}
}

// printHeatmap renders per-processor link load as an ASCII grid (2-d
// meshes; higher dimensions print per-dimension totals instead).
func printHeatmap(net *engine.Net) {
	if !net.CountingLoads() {
		fmt.Println("congestion: load counting was not enabled")
		return
	}
	s := net.Shape
	prof := net.LoadProfile()
	if s.Dim != 2 {
		fmt.Printf("congestion: total hops %d, max link load %d, by dimension %v\n",
			prof.Total, prof.Max, prof.ByDim)
		return
	}
	scale := " .:-=+*#%@"
	fmt.Printf("congestion heatmap (max link load %d):\n", prof.Max)
	for r := 0; r < s.Side; r++ {
		row := make([]byte, s.Side)
		for c := 0; c < s.Side; c++ {
			rank := s.Rank([]int{r, c})
			var load int64
			for l := 0; l < 4; l++ {
				load += net.LinkLoad(rank, l)
			}
			idx := 0
			if prof.Max > 0 {
				idx = int(load * int64(len(scale)-1) / (4 * prof.Max))
				if idx >= len(scale) {
					idx = len(scale) - 1
				}
			}
			row[c] = scale[idx]
		}
		fmt.Printf("  %s\n", row)
	}
}

// fail exits nonzero with a one-line diagnostic instead of printing
// partial statistics. Degraded-routing aborts already carry their
// stranded/stuck counts; the first stuck packet's diagnosis is appended
// as the starting point for debugging.
func fail(err error) {
	if err == nil {
		return
	}
	stopProfiles() // os.Exit skips main's defer
	var de *engine.DegradedError
	if errors.As(err, &de) && len(de.Stuck) > 0 {
		fmt.Fprintf(os.Stderr, "error: %v; first stuck: %v\n", err, de.Stuck[0])
	} else {
		fmt.Fprintln(os.Stderr, "error:", err)
	}
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

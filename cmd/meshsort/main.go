// Command meshsort runs one of the paper's algorithms on a configurable
// network and prints per-phase statistics.
//
// Usage:
//
//	meshsort -alg simple -d 3 -n 16 -b 4
//	meshsort -alg torussort -d 3 -n 16 -b 8 -seed 7
//	meshsort -alg route -d 3 -n 16 -b 4
//	meshsort -alg select -d 3 -n 16 -b 4
//	meshsort -alg greedyroute -d 3 -n 16 -faults 0.01 -fault-seed 7
//	meshsort -alg cliqueroute -n 128 -k 4
//	meshsort -alg traffic -d 3 -n 16 -load "lk:l=2,k=4" -inject window:128
//
// The CLI is a client of meshsortd's job model: the flags become a
// service.JobSpec, Canonicalize validates it, and service.Run executes
// it on a runner the CLI owns. The text and -json reports both render
// the returned service.Result; -json is the encoding the HTTP API
// serves. meshsortd's resource ceilings do not apply here. -b 0 means
// the spec default (4 when it divides n, else n/2); -real and -alt are
// the spec fields realLocalSort and altEstimator.
//
// Algorithms: simple (Thm 3.1), copy (Thm 3.2), torussort (Thm 3.3),
// full (the 2D baseline), route (two-phase permutation routing, Thm
// 5.1/5.2), select (Section 4.3), cliqueroute (greedy k-relation on the
// congested clique, -topo clique, where -n is the node count and -d is
// ignored) and traffic (timed injection: -load picks the demand, -inject
// the arrival schedule; the report carries sojourn percentiles). The
// baselines oddeven, shear and greedyroute (tuned by -policy, -classes
// and -heat) run outside the job model, on the shape, block side,
// permutation and fault plan of the equivalent route spec.
//
// -faults injects a seeded random fault plan and switches routing to
// the fault-aware detouring policy; -patience and -paranoid expose the
// engine's stranding budget and invariant checker. -trace writes one
// service.PhaseTrace JSON line per completed phase to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/service"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

func main() {
	var (
		alg    = flag.String("alg", "simple", "algorithm: simple|copy|torussort|full|oddeven|shear|route|greedyroute|cliqueroute|traffic|select")
		d      = flag.Int("d", 3, "dimension (ignored on the clique)")
		n      = flag.Int("n", 16, "side length (clique: node count)")
		b      = flag.Int("b", 0, "block side length (0 = 4 when it divides n, else n/2)")
		k      = flag.Int("k", 1, "packets per processor (simple and cliqueroute)")
		torus  = flag.Bool("torus", false, "use a torus instead of a mesh")
		tpo    = flag.String("topo", "", "topology: mesh|torus|clique (\"\" = mesh, or torus with -torus)")
		policy = flag.String("policy", "", "greedyroute policy override: greedy|dimorder (\"\" = the topology default)")
		seed   = flag.Uint64("seed", 1, "random seed")
		real   = flag.Bool("real", false, "simulate local sorts in-mesh (shearsort) instead of charging the cost model")
		alt    = flag.Bool("alt", false, "use the bias-corrected destination estimator (ablation E13)")
		work   = flag.Int("workers", 0, "local-phase block workers (0 = GOMAXPROCS); routing runs on one goroutine")
		pperm  = flag.String("perm", "", "permutation for route and greedyroute: random|reversal|transpose|hotspot (\"\" = random)")
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

	if *policy != "" && *alg != "greedyroute" {
		fail(fmt.Errorf("-policy applies to -alg greedyroute only"))
	}
	isBaseline := *alg == "oddeven" || *alg == "shear" || *alg == "greedyroute"
	spec := service.JobSpec{
		Alg: *alg, Topology: *tpo, D: *d, N: *n, Torus: *torus, B: *b, K: *k, Seed: *seed,
		Perm: *pperm, Load: *load, Inject: *inject,
		Faults: *faults, FaultSeed: *fseed, Patience: *patience,
		RealLocalSort: *real, AltEstimator: *alt,
	}
	if isBaseline {
		// The baselines take the shape, block side, permutation and fault
		// plan of the equivalent route spec; -real and -alt do not apply.
		spec.Alg = service.AlgRoute
		spec.RealLocalSort, spec.AltEstimator = false, false
	}
	if spec.Alg == service.AlgCliqueRoute || spec.Topology == service.TopologyClique {
		spec.D = 0 // -d is ignored on the clique
	}
	spec, err = spec.Canonicalize()
	if err != nil && isBaseline {
		err = fmt.Errorf("baseline %s runs on the shape of an alg=route spec: %w", *alg, err)
	}
	fail(err)

	// One persistent worker pool serves every local phase of the run.
	pool := engine.NewPool(*work)
	defer pool.Close()
	var obs pipeline.Observer
	if *trace {
		obs = tracePhase
	}
	if !*jsonOut {
		printHeader(spec)
	}

	if !isBaseline {
		res, err := runJob(spec, pool, obs, *paranoid)
		fail(err)
		if *jsonOut {
			emitJSON(res)
		} else {
			printReport(spec, res)
		}
		return
	}

	// The baselines: oddeven and shear run Θ(N)-round phases that cannot
	// be cancelled, which is why they stay out of the service. The
	// results of shear and greedyroute do not carry their phase stats;
	// the observer collects them for -json.
	shape := spec.Shape()
	D := shape.Diameter()
	res := service.Result{Algorithm: *alg, Shape: shape.String(), N: shape.N(), Diameter: D}
	var phases []pipeline.PhaseStat
	collect := func(ph pipeline.PhaseStat) {
		phases = append(phases, ph)
		if obs != nil {
			obs(ph)
		}
	}
	keys := core.RandomKeys(shape, spec.K, spec.Seed+1)
	text := !*jsonOut
	switch *alg {
	case "oddeven":
		r, err := baseline.RunOddEven(shape, keys)
		fail(err)
		res.Delivered, res.Sorted = r.Sorted, r.Sorted
		res.TotalSteps, res.RouteSteps = r.Rounds, r.Rounds
		if text {
			fmt.Printf("odd-even transposition: %d rounds (= steps), sorted=%v, %.2f x diameter\n",
				r.Rounds, r.Sorted, float64(r.Rounds)/float64(D))
		}
	case "shear":
		r, err := baseline.ShearSort(shape, keys, baseline.ShearSortOpts{Pool: pool, Observer: collect})
		fail(err)
		res.Algorithm = "shearsort"
		res.Delivered, res.Sorted = r.Sorted, r.Sorted
		res.TotalSteps, res.RouteSteps, res.MergeRounds = r.Steps, r.Steps, r.Iterations
		if text {
			fmt.Printf("whole-mesh shearsort: %d steps (%.2f x D), sorted=%v, %d iterations, %d fallback rounds\n",
				r.Steps, float64(r.Steps)/float64(D), r.Sorted, r.Iterations, r.Fallback)
		}
	case "greedyroute":
		prob, err := service.PermProblem(spec.Perm, shape, spec.Seed)
		fail(err)
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
		r, net, err := route.RunProblem(shape, prob, route.BatchOpts{
			Mode: cm, BlockSide: spec.B, Seed: spec.Seed, Pool: pool,
			Faults: spec.FaultPlan(), Patience: spec.Patience, Paranoid: *paranoid,
			CountLoads: *heat, Observer: collect, Policy: pol,
		})
		fail(err)
		res.Delivered = len(r.Stranded) == 0
		res.TotalSteps, res.RouteSteps, res.MaxQueue, res.Stranded = r.Steps, r.Steps, r.MaxQueue, len(r.Stranded)
		if text {
			fmt.Printf("greedy routing of %s: %d steps (D=%d), max overshoot %d, max queue %d",
				prob.Name, r.Steps, D, r.MaxOvershoot, r.MaxQueue)
			printStranded(len(r.Stranded))
			for i, d := range r.Stranded {
				if i == 4 {
					fmt.Printf("  ... and %d more\n", len(r.Stranded)-i)
					break
				}
				fmt.Printf("  stranded: %v\n", d)
			}
			if *heat {
				printHeatmap(net)
			}
		}
	}
	if *jsonOut {
		res.Phases = service.TracePhases(phases)
		emitJSON(res)
	}
}

// runJob runs a canonical spec through the service's job model on a
// runner the CLI owns. Unlike meshsortd, it applies no resource
// ceilings.
func runJob(spec service.JobSpec, pool *engine.Pool, obs pipeline.Observer, paranoid bool) (service.Result, error) {
	runner := pipeline.New(pipeline.Config{Topo: spec.Topo(), Pool: pool})
	return service.Run(context.Background(), spec, runner, pool, obs, paranoid)
}

// printHeader prints the network line and, with -faults, the fault plan.
func printHeader(spec service.JobSpec) {
	tp := spec.Topo()
	if spec.Topology == service.TopologyClique {
		fmt.Printf("%v: N=%d D=%d\n", tp, tp.N(), tp.Diameter())
	} else {
		b := spec.B
		if b == 0 { // alg=traffic runs unblocked
			b = service.DefaultBlockSide(spec.N)
		}
		fmt.Printf("%v: N=%d D=%d block=%d\n", tp, tp.N(), tp.Diameter(), b)
	}
	if plan := spec.FaultPlan(); plan != nil {
		fmt.Printf("fault injection: %v\n", plan)
	}
}

// printReport renders the text report of a job-model run.
func printReport(spec service.JobSpec, res service.Result) {
	D := float64(res.Diameter)
	switch spec.Alg {
	case service.AlgRoute:
		fmt.Printf("two-phase routing: %d routing steps (bound D+2nu = %d), nu=%d effective=%d, delivered=%v",
			res.RouteSteps, res.Bound, res.Nu, res.EffectiveNu, res.Delivered)
		if res.Stranded > 0 {
			fmt.Printf(", stranded=%d", res.Stranded)
		}
		fmt.Println()
	case service.AlgSelect:
		fmt.Printf("selection: median=%d correct=%v, %d routing steps (%.2f D), %d candidates\n",
			res.Value, res.Delivered, res.RouteSteps, float64(res.RouteSteps)/D, res.Candidates)
	case service.AlgTraffic:
		var soj stats.LatencySummary
		if res.Sojourn != nil {
			soj = *res.Sojourn
		}
		fmt.Printf("timed traffic %s under %s: %d packets in %d steps, delivered=%v, max queue %d",
			spec.Load, spec.Inject, soj.Count, res.RouteSteps, res.Delivered, res.MaxQueue)
		printStranded(res.Stranded)
		fmt.Printf("  sojourn (injection to delivery): p50=%d p95=%d p99=%d max=%d steps\n",
			soj.P50, soj.P95, soj.P99, soj.Max)
		return
	case service.AlgCliqueRoute:
		fmt.Printf("clique greedy routing of a %d-relation: %d steps (bound k=%d), delivered=%v, max queue %d",
			spec.K, res.RouteSteps, res.Bound, res.Delivered, res.MaxQueue)
		printStranded(res.Stranded)
		return
	default: // the sorting algorithms
		fmt.Printf("%s: sorted=%v\n", res.Algorithm, res.Sorted)
		fmt.Printf("  routing steps: %d  (%.3f x D)\n", res.RouteSteps, float64(res.RouteSteps)/D)
		fmt.Printf("  local (o(n))-charged steps: %d\n", res.OracleSteps)
		fmt.Printf("  total: %d (%.3f x D), merge rounds: %d, max queue: %d\n",
			res.TotalSteps, float64(res.TotalSteps)/D, res.MergeRounds, res.MaxQueue)
		if res.Stranded > 0 {
			fmt.Printf("  stranded: %d packets parked by the patience budget (degraded run)\n", res.Stranded)
		}
		if res.MaxPairDist > 0 {
			fmt.Printf("  max pair distance after center sort: %d (%.3f x D; Lemma 3.3/3.4 bound ~0.5)\n",
				res.MaxPairDist, float64(res.MaxPairDist)/D)
		}
	}
	for _, ph := range res.Phases {
		printPhase(ph)
	}
}

// printStranded ends a one-line report, naming the stranded count of a
// degraded run.
func printStranded(stranded int) {
	if stranded > 0 {
		fmt.Printf(", stranded %d", stranded)
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

// tracePhase is the -trace observer: one JSON line per completed
// pipeline phase, written to stderr so it composes with the normal
// stdout report.
func tracePhase(ph pipeline.PhaseStat) {
	line, err := json.Marshal(service.TracePhase(ph))
	if err != nil {
		return
	}
	fmt.Fprintln(os.Stderr, string(line))
}

func printPhase(ph service.PhaseTrace) {
	if ph.Kind == pipeline.KindRoute {
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

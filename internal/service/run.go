package service

import (
	"context"
	"fmt"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

// Run executes a canonical spec on the given runner and pool: the one
// algorithm dispatcher, called by the service's runner slots and by
// cmd/meshsort. obs (if non-nil) receives every completed phase and
// paranoid turns on the engine's invariant checker; neither changes the
// Result. Cancelling ctx stops the run at the next step or phase
// boundary, and the partial Result is returned alongside the error.
func Run(ctx context.Context, spec JobSpec, runner *pipeline.Runner, pool *engine.Pool, obs pipeline.Observer, paranoid bool) (Result, error) {
	shape := spec.Shape()
	fo := core.FaultOpts{Faults: spec.FaultPlan(), Patience: spec.Patience, Paranoid: paranoid, Cancel: ctx.Done()}
	batch := route.BatchOpts{
		Pool: pool, Runner: runner, Observer: obs,
		Faults: fo.Faults, Patience: fo.Patience, Paranoid: fo.Paranoid, Cancel: fo.Cancel,
	}

	switch spec.Alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull, AlgSelect:
		cfg := core.Config{
			Shape: shape, BlockSide: spec.B, K: spec.K, Seed: spec.Seed,
			RealLocalSort: spec.RealLocalSort, AltEstimator: spec.AltEstimator,
			Pool: pool, Runner: runner, Observer: obs, FaultOpts: fo,
		}
		// Keys are seeded by Seed+1, distinct from the seed the
		// algorithms draw their own random choices from.
		keys := core.RandomKeys(shape, spec.K, spec.Seed+1)
		// The partial result is returned even on error: the core
		// algorithms populate the phase prefix and clock before reporting
		// cancellation or degradation.
		if spec.Alg == AlgSelect {
			res, err := core.Select(cfg, keys, spec.Target)
			return fromSelect(res, shape), err
		}
		sortAlg := map[string]func(core.Config, []int64) (core.Result, error){
			AlgSimple:    core.SimpleSort,
			AlgCopy:      core.CopySort,
			AlgTorusSort: core.TorusSort,
			AlgFull:      core.FullSort,
		}[spec.Alg]
		res, err := sortAlg(cfg, keys)
		return fromSort(res), err

	case AlgRoute:
		prob, err := PermProblem(spec.Perm, shape, spec.Seed)
		if err != nil {
			return Result{}, err
		}
		cfg := core.RouteConfig{
			Shape: shape, BlockSide: spec.B, Seed: spec.Seed,
			Pool: pool, Runner: runner, Observer: obs, FaultOpts: fo,
		}
		res, err := core.TwoPhaseRoute(cfg, prob)
		return fromRouteAlg(res, shape), err

	case AlgTraffic:
		ld, err := traffic.ParseLoad(spec.Load)
		if err != nil {
			return Result{}, err
		}
		sc, err := traffic.ParseSchedule(spec.Inject)
		if err != nil {
			return Result{}, err
		}
		// The demand and the arrival process draw from distinct seeded
		// streams, so changing the schedule never reshuffles the load.
		ld.Seed = spec.Seed
		sc.Seed = spec.Seed + 1
		tp := topo.FromShape(shape)
		res, net, err := route.RunTimedLoad(tp, ld, sc, batch)
		return fromGreedy("TrafficRoute", tp, 0, res, runner.Totals(), net, err), err

	case AlgCliqueRoute:
		c := topo.NewClique(spec.N)
		prob := perm.RandomRanksK(spec.N, spec.K, xmath.NewRNG(spec.Seed))
		res, net, err := route.RunTopoProblem(c, prob, batch)
		return fromGreedy("CliqueGreedyRoute", c, spec.K, res, runner.Totals(), net, err), err
	}
	return Result{}, fmt.Errorf("service: unknown alg %q", spec.Alg)
}

// PermProblem builds a named routing problem on a mesh or torus:
// random (seeded), reversal, transpose or hotspot. alg=route specs and
// cmd/meshsort's greedyroute baseline both draw from it.
func PermProblem(name string, shape grid.Shape, seed uint64) (perm.Problem, error) {
	switch name {
	case "random":
		return perm.Random(shape, xmath.NewRNG(seed)), nil
	case "reversal":
		return perm.Reversal(shape), nil
	case "transpose":
		return perm.Transpose(shape), nil
	case "hotspot":
		return perm.HotSpot(shape), nil
	}
	return perm.Problem{}, fmt.Errorf("service: unknown perm %q", name)
}

package main

import (
	"encoding/json"
	"math/rand/v2"
	"runtime"

	"meshsort/internal/service"
)

// workload is one traffic mix. Every workload is a closed loop from a
// single client, so at most one simulation is in flight: loads that
// keep two CPUs busy read bimodally from one process to the next.
type workload struct {
	name string
	// runners is Options.Runners; 0 keeps the service default (4). The
	// engine worker count per job is the service's default for it:
	// GOMAXPROCS/runners, at least 1.
	runners int
	// journal turns on the durable job journal, in a fresh directory,
	// with the default fsync policy.
	journal bool
	// kinds are the spec templates submitted in rotation; each fresh job
	// gets its own seed.
	kinds []service.JobSpec
	// repeatEvery > 0 makes every repeatEvery-th job resubmit the spec of
	// the job repeatEvery-1 places before it, which is then a cache hit.
	repeatEvery int
}

var sortSpec = service.JobSpec{Alg: service.AlgSimple, D: 3, N: 32, B: 8}

var workloads = []workload{
	{name: "sort", kinds: []service.JobSpec{sortSpec}},
	{name: "sort-wide", runners: 1, kinds: []service.JobSpec{sortSpec}},
	{name: "trickle", kinds: []service.JobSpec{
		{Alg: service.AlgTraffic, D: 3, N: 16, Load: "k:4", Inject: "trickle:2"},
	}},
	{name: "small-mix", journal: true, repeatEvery: 4, kinds: []service.JobSpec{
		{Alg: service.AlgRoute, D: 2, N: 16, B: 4},
		{Alg: service.AlgCliqueRoute, N: 64, K: 2},
		{Alg: service.AlgTraffic, D: 2, N: 16, Load: "perm", Inject: "window:16"},
		{Alg: service.AlgSimple, D: 2, N: 16, B: 4},
		{Alg: service.AlgSelect, D: 3, N: 8, B: 4},
	}},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// effectiveRunners and engineWorkers restate the service's documented
// defaults, so the report and the direct replay use the same worker
// count as the jobs the service runs.
func (w *workload) effectiveRunners() int {
	if w.runners == 0 {
		return 4
	}
	return w.runners
}

func (w *workload) engineWorkers() int {
	return max(1, runtime.GOMAXPROCS(0)/w.effectiveRunners())
}

// job is one submission of a stream.
type job struct {
	spec     service.JobSpec
	body     []byte
	repeatOf int // index of the job whose spec this one repeats, or -1
}

// stream generates a workload's jobs from a seed: the same seed gives
// the same sequence of specs.
type stream struct {
	w       *workload
	rng     *rand.Rand
	n       int         // jobs generated
	fresh   int         // of which fresh specs
	pending map[int]job // jobs a later job repeats, until it has
}

// Distinct PCG stream constants keep the measured jobs and the warm-up
// jobs of one seed apart.
const (
	jobStream    = 0x6a6f6273
	warmupStream = 0x7761726d
)

func newStream(w *workload, seed uint64) *stream {
	return &stream{w: w, rng: rand.New(rand.NewPCG(seed, jobStream)), pending: map[int]job{}}
}

func (s *stream) next() job {
	i := s.n
	s.n++
	if r := s.w.repeatEvery; r > 0 && (i+1)%r == 0 {
		j := s.pending[i-r+1]
		delete(s.pending, i-r+1)
		j.repeatOf = i - r + 1
		return j
	}
	spec := s.w.kinds[s.fresh%len(s.w.kinds)]
	s.fresh++
	spec.Seed = s.rng.Uint64()>>1 + 1
	j := job{spec: spec, body: mustJSON(spec), repeatOf: -1}
	if s.repeated(i) {
		s.pending[i] = j
	}
	return j
}

// repeated reports whether a later job of the stream repeats job i.
func (s *stream) repeated(i int) bool {
	r := s.w.repeatEvery
	return r > 0 && i%r == 0
}

// warmups returns one job per distinct runner shape of the workload,
// with seeds from the warm-up stream.
func (w *workload) warmups(seed uint64) []job {
	rng := rand.New(rand.NewPCG(seed, warmupStream))
	seen := map[string]bool{}
	var out []job
	for _, spec := range w.kinds {
		spec.Seed = rng.Uint64()>>1 + 1
		canon, err := spec.Canonicalize()
		if err != nil {
			panic(err) // the workload table holds only valid specs
		}
		if !seen[canon.ShapeKey()] {
			seen[canon.ShapeKey()] = true
			out = append(out, job{spec: spec, body: mustJSON(spec), repeatOf: -1})
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

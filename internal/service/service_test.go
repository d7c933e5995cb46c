package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"meshsort/internal/core"
	"meshsort/internal/pipeline"
)

// expectedKeySum computes the reference digest for a sorting spec: the
// spec's seeded input keys in ascending order. A job whose runner was
// aliased with another job's network could not produce it.
func expectedKeySum(spec JobSpec) string {
	keys := core.RandomKeys(spec.Shape(), spec.K, spec.Seed+1)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return KeySum(keys)
}

func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	<-j.Done()
	st := j.Snapshot()
	if st.Status == StatusFailed {
		t.Fatalf("job %s (%+v) failed: %s", st.ID, st.Spec, st.Error)
	}
	if st.Result == nil {
		t.Fatalf("job %s done without a result", st.ID)
	}
	return st
}

func TestSingleJob(t *testing.T) {
	s := New(Options{Runners: 2, WorkersPerRunner: 2})
	defer s.Close()

	job, err := s.Submit(JobSpec{Alg: AlgSimple, D: 3, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, job)
	res := st.Result
	if !res.Delivered || !res.Sorted {
		t.Errorf("job not delivered/sorted: %+v", res)
	}
	if res.Bound <= 0 || res.TotalSteps <= 0 || len(res.Phases) == 0 {
		t.Errorf("missing bound/steps/phases: bound=%d total=%d phases=%d", res.Bound, res.TotalSteps, len(res.Phases))
	}
	if want := expectedKeySum(job.Spec); res.KeySum != want {
		t.Errorf("keySum = %s, want %s", res.KeySum, want)
	}
	m := s.Metrics()
	if m.Simulations != 1 || m.JobsCompleted != 1 || m.ColdBuilds != 1 {
		t.Errorf("metrics after one job: %+v", m)
	}
}

// TestCacheHitIsByteIdentical: a repeated spec is served from the cache
// without re-simulating, and its JSON body is byte-identical to the
// cold run's.
func TestCacheHitIsByteIdentical(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()

	spec := JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 3}
	cold, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	coldSt := waitDone(t, cold)
	if coldSt.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	coldJSON, err := json.Marshal(coldSt.Result)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warmSt := waitDone(t, warm)
	if !warmSt.CacheHit {
		t.Fatal("repeated spec did not hit the cache")
	}
	warmJSON, err := json.Marshal(warmSt.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("cache hit is not byte-identical:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}

	m := s.Metrics()
	if m.Simulations != 1 {
		t.Errorf("repeated spec re-simulated: %d simulations", m.Simulations)
	}
	if m.CacheHits != 1 {
		t.Errorf("cacheHits = %d, want 1", m.CacheHits)
	}
}

// stormSpecs builds a 64-job mixed-shape, mixed-algorithm workload:
// four shapes, five algorithms, and repeated specs sprinkled in so the
// storm also exercises the cache under concurrency.
func stormSpecs() []JobSpec {
	var specs []JobSpec
	for i := 0; len(specs) < 64; i++ {
		seed := uint64(1 + i%7)
		switch i % 8 {
		case 0, 1:
			specs = append(specs, JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: seed})
		case 2:
			specs = append(specs, JobSpec{Alg: AlgSimple, D: 3, N: 8, Seed: seed})
		case 3:
			specs = append(specs, JobSpec{Alg: AlgCopy, D: 2, N: 8, Seed: seed})
		case 4:
			specs = append(specs, JobSpec{Alg: AlgTorusSort, D: 2, N: 8, Seed: seed})
		case 5:
			specs = append(specs, JobSpec{Alg: AlgFull, D: 2, N: 8, Seed: seed})
		case 6:
			specs = append(specs, JobSpec{Alg: AlgRoute, D: 3, N: 8, Seed: seed})
		case 7:
			specs = append(specs, JobSpec{Alg: AlgSimple, D: 2, N: 8, K: 2, Seed: seed})
		}
	}
	return specs
}

// TestMixedShapeStorm is the acceptance scenario: 64 mixed-shape jobs
// over 4 warm runners. Run under -race it proves leasing never aliases
// two jobs onto one runner (enter/exit tracking per slot) and every
// job's output digest matches its spec's reference sort.
func TestMixedShapeStorm(t *testing.T) {
	s := New(Options{Runners: 4, WorkersPerRunner: 2, QueueDepth: 64})

	// Lease-exclusivity tracking: a slot must never host two jobs at
	// once, and a runner must never appear under two slots.
	var activeMu sync.Mutex
	active := make(map[*runnerSlot]string)
	s.beforeRun = func(j *Job, slot *runnerSlot) {
		activeMu.Lock()
		defer activeMu.Unlock()
		if prev, ok := active[slot]; ok {
			t.Errorf("slot %d leased to %s while still running %s", slot.id, j.ID, prev)
		}
		for other, owner := range active {
			if other != slot && other.runner == slot.runner {
				t.Errorf("runner aliased across slots %d (%s) and %d (%s)", other.id, owner, slot.id, j.ID)
			}
		}
		active[slot] = j.ID
	}
	s.afterRun = func(j *Job, slot *runnerSlot) {
		activeMu.Lock()
		defer activeMu.Unlock()
		delete(active, slot)
	}

	specs := stormSpecs()
	jobs := make([]*Job, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			// The queue holds all 64, so submission never sheds here.
			job, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i, spec)
	}
	wg.Wait()

	for i, job := range jobs {
		if job == nil {
			continue
		}
		st := waitDone(t, job)
		res := st.Result
		if !res.Delivered {
			t.Errorf("job %d (%+v) not delivered: %+v", i, st.Spec, res)
		}
		if st.Spec.Alg != AlgRoute {
			if want := expectedKeySum(st.Spec); res.KeySum != want {
				t.Errorf("job %d (%+v): keySum %s, want %s — runner state leaked between jobs",
					i, st.Spec, res.KeySum, want)
			}
		} else if res.Bound < res.Diameter {
			t.Errorf("job %d: route bound %d below diameter %d", i, res.Bound, res.Diameter)
		}
	}

	m := s.Metrics()
	if m.JobsCompleted != 64 || m.JobsFailed != 0 {
		t.Errorf("completed=%d failed=%d, want 64/0", m.JobsCompleted, m.JobsFailed)
	}
	if m.Runners != 4 || m.ColdBuilds > 4 {
		t.Errorf("runners=%d coldBuilds=%d, want 4 slots built at most once each", m.Runners, m.ColdBuilds)
	}
	// 64 jobs on at most 4 cold builds: the bulk must be warm leases
	// (plus repurposes and cache hits).
	if m.WarmLeases == 0 {
		t.Error("no warm leases in a same-shape-heavy storm")
	}
	if m.Simulations+m.CacheHits < 64 {
		t.Errorf("simulations=%d + cacheHits=%d < 64", m.Simulations, m.CacheHits)
	}
	s.Close()
}

// TestOverloadBackpressure: a full admission queue is an explicit
// ErrOverloaded, not an unbounded queue.
func TestOverloadBackpressure(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.beforeRun = func(j *Job, slot *runnerSlot) { <-gate }

	running, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has picked the first job up (status running),
	// so the queue slot is free again for exactly one more job.
	for running.Snapshot().Status == StatusQueued {
		runtime.Gosched()
	}
	queued, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue: got %v, want ErrOverloaded", err)
	}
	if got := s.Metrics().JobsRejected; got != 1 {
		t.Errorf("jobsRejected = %d, want 1", got)
	}

	close(gate)
	waitDone(t, running)
	waitDone(t, queued)
	s.Close()
	if _, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after Close: got %v, want ErrDraining", err)
	}
}

// TestCloseDrainsQueuedJobs: Close completes every admitted job before
// returning.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := New(Options{Runners: 2, WorkersPerRunner: 1, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Close()
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not terminal after Close", i)
		}
		if st := j.Snapshot(); st.Status != StatusDone {
			t.Errorf("job %d: status %s after drain: %s", i, st.Status, st.Error)
		}
	}
}

// TestFailedJobReported: a job whose algorithm rejects the problem
// surfaces as a failed job, not a panic or a hang — and is not cached.
func TestFailedJobReported(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	// d=1 passes structural canonicalization for route (no even-block
	// constraint) but is degenerate enough to exercise the failure path
	// is not guaranteed; instead force a failure through a fault plan so
	// dense the network cannot deliver.
	spec := JobSpec{Alg: AlgRoute, D: 2, N: 8, Faults: 0.9, Patience: -1}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Snapshot()
	if st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("dense-fault route job: status=%s err=%q, want a failed job", st.Status, st.Error)
	}
	if s.Metrics().JobsFailed != 1 {
		t.Errorf("jobsFailed = %d, want 1", s.Metrics().JobsFailed)
	}
	// Failed runs must not poison the cache.
	if _, ok := s.cache.get(job.Key); ok {
		t.Error("failed job was cached")
	}
}

// TestJobRetention: terminal jobs beyond the retention cap are evicted
// oldest-first; live jobs are never forgotten.
func TestJobRetention(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1, JobRetention: 4, CacheCapacity: -1})
	defer s.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest job survived past the retention cap")
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Error("newest job was forgotten")
	}
}

func TestMetricsShapeCounters(t *testing.T) {
	s := New(Options{Runners: 2, WorkersPerRunner: 1})
	defer s.Close()
	shapes := []JobSpec{
		{Alg: AlgSimple, D: 2, N: 8, Seed: 1},
		{Alg: AlgSimple, D: 2, N: 8, Seed: 2},
		{Alg: AlgSimple, D: 2, N: 8, Seed: 3},
	}
	for _, spec := range shapes {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	m := s.Metrics()
	if m.ColdBuilds < 1 || m.WarmLeases < 1 {
		t.Errorf("sequential same-shape jobs: coldBuilds=%d warmLeases=%d, want >=1 each", m.ColdBuilds, m.WarmLeases)
	}
	if m.ColdBuilds+m.WarmLeases+m.Repurposed != m.Simulations {
		t.Errorf("lease counters %d+%d+%d do not add up to %d simulations",
			m.ColdBuilds, m.WarmLeases, m.Repurposed, m.Simulations)
	}
	_ = fmt.Sprintf("%+v", m)
}

// TestRunSettingsKeepResult: the observer and the paranoid checker are
// run settings — the observer sees every phase the Result reports, and
// neither changes the Result.
func TestRunSettingsKeepResult(t *testing.T) {
	for _, spec := range []JobSpec{
		{Alg: AlgSimple, D: 2, N: 8, Faults: 0.05},
		{Alg: AlgRoute, D: 2, N: 8},
		{Alg: AlgTraffic, D: 2, N: 8, Load: "k:2"},
		{Alg: AlgCliqueRoute, N: 16, K: 2},
	} {
		spec := mustCanon(t, spec)
		run := func(obs pipeline.Observer, paranoid bool) Result {
			runner := pipeline.New(pipeline.Config{Topo: spec.Topo()})
			res, err := Run(context.Background(), spec, runner, nil, obs, paranoid)
			if err != nil {
				t.Fatalf("%s: %v", spec.Alg, err)
			}
			for i := range res.Phases {
				res.Phases[i].StepsPerSec, res.Phases[i].PacketsPerStep, res.Phases[i].WorkerUtil = 0, 0, 0
			}
			return res
		}
		var seen []string
		plain := run(nil, false)
		checked := run(func(ph pipeline.PhaseStat) { seen = append(seen, ph.Name) }, true)
		if !reflect.DeepEqual(plain, checked) {
			t.Errorf("%s: observer/paranoid changed the result:\n  %+v\n  %+v", spec.Alg, plain, checked)
		}
		if len(seen) != len(plain.Phases) {
			t.Errorf("%s: observer saw %d phases, result reports %d", spec.Alg, len(seen), len(plain.Phases))
		}
	}
}

func TestTracePhases(t *testing.T) {
	in := []pipeline.PhaseStat{{Name: "a", Kind: "route", Steps: 3, Bound: 5}}
	out := TracePhases(in)
	if len(out) != 1 || out[0].Name != "a" || out[0].Bound != 5 {
		t.Errorf("TracePhases: %+v", out)
	}
	if empty, _ := json.Marshal(TracePhases(nil)); string(empty) != "[]" {
		t.Errorf("empty trace encodes as %s, want []", empty)
	}
}

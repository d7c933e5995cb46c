package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/service"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

// layerTimes accumulates the traced run's per-layer figures. Times are
// sums, reported as means per job, so that they add up.
type layerTimes struct {
	jobs      int
	decode    time.Duration // service.DecodeSpec
	submit    time.Duration // Service.SubmitWith
	wait      time.Duration // SubmitWith returning until Job.Done closes
	encode    time.Duration // JSON encoding of Job.Snapshot
	allocs    uint64        // bytes allocated on the service path
	gcs       uint32        // collections during the service path
	simulated int           // jobs replayed (cache hits are not)
	overhead  time.Duration // wait minus the direct replay, over replayed jobs
	replay    replayStat    // summed over replayed jobs
}

// replayStat sums the direct replays of jobs on warm runners, split by
// the phase ends a pipeline.Observer stamps.
type replayStat struct {
	keygen  time.Duration // keys, permutation or demand generation
	wall    time.Duration // what the service also does: generation and the algorithm call
	covered time.Duration // the part of wall that generation and phases account for
	route   time.Duration // phase intervals by phase kind
	oracle  time.Duration
	check   time.Duration
	engine  time.Duration // the engine's step loops: Steps / StepsPerSec
	steps   int64
	hops    int64
	util    float64 // WorkerUtil weighted by steps

	trafficJobs   int
	pairs         time.Duration // traffic.Load.Pairs on the job's seed
	stamps        time.Duration // traffic.Schedule.Stamps on the job's seed
	timedOverhead time.Duration // route.RunTimedLoad outside its engine step loop
}

// phaseClock is the replay's pipeline.Observer: it charges the time
// since the previous phase end to the phase that just ended.
type phaseClock struct {
	last time.Time
	st   *replayStat
}

func (c *phaseClock) start() time.Time {
	c.last = time.Now()
	return c.last
}

func (c *phaseClock) observe(ph pipeline.PhaseStat) {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	c.st.covered += d
	switch ph.Kind {
	case pipeline.KindRoute:
		c.st.route += d
		if ph.StepsPerSec > 0 {
			c.st.engine += time.Duration(float64(ph.Steps) / ph.StepsPerSec * float64(time.Second))
		}
		c.st.steps += int64(ph.Steps)
		c.st.hops += ph.Hops
		c.st.util += ph.WorkerUtil * float64(ph.Steps)
	case pipeline.KindCheck:
		c.st.check += d
	default:
		c.st.oracle += d
	}
}

// replayer runs jobs directly through their algorithm entry points on
// warm runners of its own, one per shape, with the worker count the
// service gives each job.
type replayer struct {
	workers int
	slots   map[string]*replaySlot
}

type replaySlot struct {
	runner *pipeline.Runner
	pool   *engine.Pool
}

func newReplayer(workers int) *replayer {
	return &replayer{workers: workers, slots: map[string]*replaySlot{}}
}

func (rp *replayer) close() {
	for _, s := range rp.slots {
		s.pool.Close()
	}
}

func (rp *replayer) slot(spec service.JobSpec) *replaySlot {
	s, ok := rp.slots[spec.ShapeKey()]
	if !ok {
		pool := engine.NewPool(rp.workers)
		s = &replaySlot{pool: pool, runner: pipeline.New(pipeline.Config{Topo: spec.Topo(), Pool: pool})}
		rp.slots[spec.ShapeKey()] = s
	}
	return s
}

// run replays one job, adds its figures to st, and returns its wall
// time and simulated step count. The spec must be canonical and
// fault-free, as every workload's specs are.
func (rp *replayer) run(spec service.JobSpec, st *replayStat) (time.Duration, int, error) {
	sl := rp.slot(spec)
	clock := &phaseClock{st: st}
	shape := spec.Shape()
	fault := core.FaultOpts{Patience: spec.Patience}
	if spec.Alg == service.AlgTraffic {
		return rp.traffic(spec, sl, clock)
	}

	t := time.Now()
	var keys []int64
	var prob perm.Problem
	switch spec.Alg {
	case service.AlgSimple, service.AlgSelect:
		keys = core.RandomKeys(shape, spec.K, spec.Seed+1)
	case service.AlgRoute:
		prob = perm.Random(shape, xmath.NewRNG(spec.Seed))
	case service.AlgCliqueRoute:
		prob = perm.RandomRanksK(spec.N, spec.K, xmath.NewRNG(spec.Seed))
	default:
		return 0, 0, fmt.Errorf("replay: no entry point for alg %q", spec.Alg)
	}
	keygen := time.Since(t)

	start := clock.start()
	var steps int
	var err error
	switch spec.Alg {
	case service.AlgSimple, service.AlgSelect:
		cfg := core.Config{
			Shape: shape, BlockSide: spec.B, K: spec.K, Seed: spec.Seed,
			Pool: sl.pool, Runner: sl.runner, Observer: clock.observe, FaultOpts: fault,
		}
		if spec.Alg == service.AlgSelect {
			var res core.SelectResult
			res, err = core.Select(cfg, keys, spec.Target)
			steps = res.TotalSteps
		} else {
			var res core.Result
			res, err = core.SimpleSort(cfg, keys)
			steps = res.TotalSteps
		}
	case service.AlgRoute:
		cfg := core.RouteConfig{
			Shape: shape, BlockSide: spec.B, Seed: spec.Seed,
			Pool: sl.pool, Runner: sl.runner, Observer: clock.observe, FaultOpts: fault,
		}
		var res core.RouteAlgResult
		res, err = core.TwoPhaseRoute(cfg, prob)
		steps = res.TotalSteps
	case service.AlgCliqueRoute:
		opts := route.BatchOpts{Pool: sl.pool, Runner: sl.runner, Patience: spec.Patience, Observer: clock.observe}
		_, _, err = route.RunTopoProblem(topo.NewClique(spec.N), prob, opts)
		steps = sl.runner.Totals().TotalSteps
	}
	wall := keygen + time.Since(start)
	st.keygen += keygen
	st.covered += keygen
	st.wall += wall
	return wall, steps, err
}

// traffic replays a timed traffic job. Demand and schedule generation
// are timed on their own, on the job's seeds; RunTimedLoad generates
// them again inside its route phase, so they are not added to the wall.
func (rp *replayer) traffic(spec service.JobSpec, sl *replaySlot, clock *phaseClock) (time.Duration, int, error) {
	st := clock.st
	ld, err := traffic.ParseLoad(spec.Load)
	if err != nil {
		return 0, 0, err
	}
	sc, err := traffic.ParseSchedule(spec.Inject)
	if err != nil {
		return 0, 0, err
	}
	ld.Seed, sc.Seed = spec.Seed, spec.Seed+1
	t := time.Now()
	pairs, err := ld.Pairs(spec.Shape().N())
	pairsTime := time.Since(t)
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	_, err = sc.Stamps(len(pairs), 0)
	stampsTime := time.Since(t)
	if err != nil {
		return 0, 0, err
	}
	st.trafficJobs++
	st.pairs += pairsTime
	st.stamps += stampsTime
	st.keygen += pairsTime + stampsTime

	engine0 := st.engine
	opts := route.BatchOpts{Pool: sl.pool, Runner: sl.runner, Patience: spec.Patience, Observer: clock.observe}
	start := clock.start()
	_, _, err = route.RunTimedLoad(topo.FromShape(spec.Shape()), ld, sc, opts)
	wall := time.Since(start)
	st.wall += wall
	st.timedOverhead += wall - (st.engine - engine0)
	return wall, sl.runner.Totals().TotalSteps, err
}

// traced runs the closed loop through the service's public functions
// instead of the HTTP handler, timing each call, and replays every
// simulated job directly. Its own end-to-end figures, printed beside
// the layer metrics, against an untraced run's give the tracing
// overhead.
func (b *bench) traced(rep *report) error {
	rp := newReplayer(b.cfg.w.engineWorkers())
	defer rp.close()
	for _, j := range b.cfg.w.warmups(b.cfg.seed) {
		canon, err := j.spec.Canonicalize()
		if err != nil {
			return err
		}
		if _, _, err := rp.run(canon, &replayStat{}); err != nil {
			return fmt.Errorf("replay warm-up %s: %w", j.body, err)
		}
	}
	runtime.GC()

	var lt layerTimes
	before := b.serviceMetrics()
	journal0 := b.journalSize()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(b.cfg.window)
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	for !b.done(deadline) {
		j := b.stream.next()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		spec, err := service.DecodeSpec(bytes.NewReader(j.body))
		t1 := time.Now()
		var jb *service.Job
		if err == nil {
			jb, err = b.svc.SubmitWith(spec, service.SubmitOpts{})
		}
		t2 := time.Now()
		var snap service.JobStatus
		if err == nil {
			<-jb.Done()
			snap = jb.Snapshot()
		}
		t3 := time.Now()
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ") // as the HTTP handler writes it
		enc.Encode(snap)
		t4 := time.Now()
		runtime.ReadMemStats(&ms1)
		var r *response
		if err == nil {
			r, err = decodeResponse(http.StatusOK, buf.Bytes())
		}
		lat := time.Since(t0)
		b.record(j, r, err, lat)
		if err != nil {
			continue
		}

		lt.jobs++
		lt.decode += t1.Sub(t0)
		lt.submit += t2.Sub(t1)
		lt.wait += t3.Sub(t2)
		lt.encode += t4.Sub(t3)
		lt.allocs += ms1.TotalAlloc - ms0.TotalAlloc
		lt.gcs += ms1.NumGC - ms0.NumGC
		if snap.CacheHit {
			continue
		}
		wall, steps, err := rp.run(snap.Spec, &lt.replay)
		if err == nil && snap.Result != nil && steps != snap.Result.TotalSteps {
			err = fmt.Errorf("replay took %d steps, the service %d", steps, snap.Result.TotalSteps)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", j.body, err)
		}
		lt.simulated++
		lt.overhead += t3.Sub(t2) - wall
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	after := b.serviceMetrics()
	journalBytes := b.journalSize() - journal0
	if lt.jobs == 0 {
		return errNoJobs
	}

	// The traced loop's own client-side figures, for the overhead record.
	e2e := metrics{}
	b.endToEnd(rep, e2e, wall-b.verifyTime)
	rep.linef("traced e2e: jobs_per_s=%.4f latency_p50_ms=%.4f latency_p90_ms=%.4f",
		e2e["jobs_per_s"].Value, e2e["latency_p50_ms"].Value, e2e["latency_p90_ms"].Value)
	b.layerMetrics(rep.metrics, &lt, before, after, journalBytes, cpu, wall)
	return nil
}

// layerMetrics turns the traced run's sums into the per-layer metrics.
func (b *bench) layerMetrics(m metrics, lt *layerTimes, before, after service.Metrics, journalBytes int64, cpu, wall time.Duration) {
	perJob := func(d time.Duration) time.Duration { return d / time.Duration(lt.jobs) }
	r := &lt.replay
	perSim := func(d time.Duration) time.Duration {
		if lt.simulated == 0 {
			return 0
		}
		return d / time.Duration(lt.simulated)
	}
	perTraffic := func(d time.Duration) time.Duration {
		if r.trafficJobs == 0 {
			return 0
		}
		return d / time.Duration(r.trafficJobs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m.set("service.decode_us", "us", us(perJob(lt.decode)))
	m.set("service.submit_us", "us", us(perJob(lt.submit)))
	m.set("service.encode_us", "us", us(perJob(lt.encode)))
	m.set("service.wait_ms", "ms", ms(perJob(lt.wait)))
	m.set("service.overhead_us", "us", us(perSim(lt.overhead)))
	hits := after.CacheHits - before.CacheHits
	completed := after.JobsCompleted - before.JobsCompleted
	m.set("service.cache_hit_frac", "fraction", ratio(float64(hits), float64(completed)))
	warm := after.WarmLeases - before.WarmLeases
	leases := warm + after.ColdBuilds - before.ColdBuilds + after.Repurposed - before.Repurposed
	m.set("service.warm_lease_frac", "fraction", ratio(float64(warm), float64(leases)))
	m.set("service.journal_bytes_per_job", "B", ratio(float64(journalBytes), float64(lt.jobs)))
	m.set("service.fsyncs_per_s", "1/s", float64(after.Journal.Fsyncs-before.Journal.Fsyncs)/wall.Seconds())

	m.set("pipeline.route_ms", "ms", ms(perSim(r.route)))
	m.set("pipeline.oracle_ms", "ms", ms(perSim(r.oracle)))
	m.set("pipeline.check_ms", "ms", ms(perSim(r.check)))
	m.set("pipeline.unattributed_ms", "ms", ms(perSim(r.wall-r.covered)))
	m.set("pipeline.coverage_frac", "fraction", ratio(float64(r.covered), float64(r.wall)))
	m.set("core.keygen_ms", "ms", ms(perSim(r.keygen)))

	m.set("engine.route_ms", "ms", ms(perSim(r.engine)))
	m.set("engine.prepare_ms", "ms", ms(perSim(r.route-r.engine)))
	m.set("engine.ns_per_step", "ns", ratio(float64(r.engine), float64(r.steps)))
	m.set("engine.ns_per_hop", "ns", ratio(float64(r.engine), float64(r.hops)))
	m.set("engine.worker_util", "fraction", ratio(r.util, float64(r.steps)))
	m.set("engine.cpu_per_wall", "fraction", cpu.Seconds()/wall.Seconds())
	m.set("engine.steps_per_job", "steps", ratio(float64(b.lead.steps), float64(b.lead.jobs)))
	m.set("engine.hops_per_job", "hops", ratio(float64(b.lead.hops), float64(b.lead.jobs)))

	m.set("traffic.pairs_ms", "ms", ms(perTraffic(r.pairs)))
	m.set("traffic.stamps_ms", "ms", ms(perTraffic(r.stamps)))
	m.set("route.timed_overhead_ms", "ms", ms(perTraffic(r.timedOverhead)))
	m.set("stats.sojourn_p99_steps", "steps", ratio(float64(b.lead.soj99s), float64(b.lead.trafficJobs)))

	m.set("runtime.alloc_bytes_per_job", "B", float64(lt.allocs)/float64(lt.jobs))
	m.set("runtime.gc_per_kjob", "count", 1000*float64(lt.gcs)/float64(lt.jobs))
}

// serviceMetrics reads GET /metrics through the handler.
func (b *bench) serviceMetrics() service.Metrics {
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m service.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: decode /metrics:", err)
	}
	return m
}

// journalSize is the journal file's size in bytes, 0 without a journal.
func (b *bench) journalSize() int64 {
	if b.journal == "" {
		return 0
	}
	fi, err := os.Stat(b.journal)
	if err != nil {
		return 0
	}
	return fi.Size()
}

package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"

	"meshsort/internal/service"
	"meshsort/internal/stats"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 5}, {900, 9}, {901, 10}, {1000, 10}, {1, 1}, {750, 8}} {
		if got := nearestRank(xs, c.pm); got != c.want {
			t.Errorf("nearestRank(1..10, %d) = %g, want %g", c.pm, got, c.want)
		}
	}
	if got := nearestRank(nil, 500); got != 0 {
		t.Errorf("nearestRank of no samples = %g, want 0", got)
	}
	// 0.9*100 is 90.00000000000001 in floating point; the rank must not
	// round up past the 90th sample.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := nearestRank(hundred, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750},
		{99, 750}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {10000, 999},
	} {
		got := highestPercentile(c.n)
		if got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "service.decode_us", "engine.ns_per_step", "a-b.c_9", "9lives"} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", ".hidden", "has space", "per/job", "lat(ms)", "é", string(make([]byte, 65))} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	for _, unit := range []string{"ms", "1/s", "%", "fraction", "B"} {
		if !metricUnit.MatchString(unit) {
			t.Errorf("unit %q rejected", unit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("metrics.set accepted a bad name")
		}
	}()
	metrics{}.set("bad name", "ms", 1)
}

func okResponse() *response {
	return &response{code: http.StatusOK, Status: service.StatusDone, Raw: json.RawMessage(`{"x":1}`),
		result: service.Result{Delivered: true, Sorted: true, Bound: 10, RouteSteps: 9}}
}

func TestGate(t *testing.T) {
	if err := gate(service.AlgSimple, okResponse(), nil); err != nil {
		t.Fatalf("a correct sort failed the gate: %v", err)
	}
	cases := map[string]func(r *response) (alg string, first json.RawMessage){
		"refused": func(r *response) (string, json.RawMessage) {
			r.code, r.Status = http.StatusTooManyRequests, ""
			return service.AlgSimple, nil
		},
		"failed": func(r *response) (string, json.RawMessage) {
			r.Status = service.StatusFailed
			return service.AlgSimple, nil
		},
		"undelivered": func(r *response) (string, json.RawMessage) {
			r.result.Delivered = false
			return service.AlgRoute, nil
		},
		"unsorted": func(r *response) (string, json.RawMessage) {
			r.result.Sorted = false
			return service.AlgSimple, nil
		},
		"over bound": func(r *response) (string, json.RawMessage) {
			r.result.RouteSteps = 11
			return service.AlgRoute, nil
		},
		"no sojourn": func(r *response) (string, json.RawMessage) {
			return service.AlgTraffic, nil
		},
		"empty sojourn": func(r *response) (string, json.RawMessage) {
			r.result.Sojourn = &stats.LatencySummary{}
			return service.AlgTraffic, nil
		},
		"repeat missed the cache": func(r *response) (string, json.RawMessage) {
			return service.AlgSimple, r.Raw
		},
		"cache hit differs": func(r *response) (string, json.RawMessage) {
			r.CacheHit = true
			return service.AlgSimple, json.RawMessage(`{"x":2}`)
		},
	}
	for name, mutate := range cases {
		r := okResponse()
		alg, first := mutate(r)
		if err := gate(alg, r, first); err == nil {
			t.Errorf("%s: passed the gate", name)
		}
	}
	r := okResponse()
	r.CacheHit = true
	if err := gate(service.AlgSimple, r, json.RawMessage(`{"x":1}`)); err != nil {
		t.Errorf("an identical cache hit failed the gate: %v", err)
	}
}

func TestRefusedAndFailedJobsCountAgainstOkFrac(t *testing.T) {
	var tl tally
	for _, ok := range []bool{true, false, true, false} {
		tl.add(ok)
	}
	if tl.attempted != 4 || tl.failed() != 2 || tl.okFrac() != 0.5 {
		t.Errorf("tally = %+v failed %d okFrac %g, want 4 attempted, 2 failed, 0.5", tl, tl.failed(), tl.okFrac())
	}

	// A refused submission goes through record like any other job.
	b := &bench{cfg: config{w: &workloads[0]}, stream: newStream(&workloads[0], 1), firsts: map[int]json.RawMessage{}, dig: newDigest()}
	b.errs = 5 // keep the expected failures off stderr
	refused := &response{code: http.StatusTooManyRequests}
	b.record(b.stream.next(), refused, nil, 0)
	b.record(b.stream.next(), &response{code: http.StatusOK, Status: service.StatusFailed}, nil, 0)
	if b.attempted != 2 || b.correct != 0 || b.okFrac() != 0 {
		t.Errorf("after a refused and a failed job: attempted %d correct %d", b.attempted, b.correct)
	}
}

func TestStreamRepeatsAndWarmups(t *testing.T) {
	w, _ := lookupWorkload("small-mix")
	s := newStream(w, 7)
	var jobs []job
	for i := 0; i < 40; i++ {
		j := s.next()
		jobs = append(jobs, j)
		if (i+1)%4 == 0 {
			if j.repeatOf != i-3 || string(j.body) != string(jobs[i-3].body) {
				t.Fatalf("job %d repeats %d (%s), want job %d", i, j.repeatOf, j.body, i-3)
			}
			if !s.repeated(j.repeatOf) {
				t.Fatalf("job %d is repeated but not kept", j.repeatOf)
			}
		} else if j.repeatOf != -1 {
			t.Fatalf("job %d repeats %d, want a fresh spec", i, j.repeatOf)
		}
	}
	if len(s.pending) != 0 {
		t.Errorf("%d repeated jobs still held after their repeats", len(s.pending))
	}
	again := newStream(w, 7)
	for i := 0; i < 40; i++ {
		if got := again.next(); string(got.body) != string(jobs[i].body) {
			t.Fatalf("job %d differs for the same seed", i)
		}
	}
	if got := len(w.warmups(7)); got != 3 {
		t.Errorf("small-mix has %d warm-up shapes, want 3 (2-d n=16 mesh, clique, 3-d n=8 mesh)", got)
	}
}

func shortRun(t *testing.T, name string, seed uint64, trace bool) *report {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rep, err := run(config{w: w, seed: seed, trace: trace, short: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rep.attempted != digestJobs || rep.failed() != 0 {
		t.Fatalf("%s seed %d: %d attempted, %d failed", name, seed, rep.attempted, rep.failed())
	}
	return rep
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, x := range list {
		out = append(out, x.Name)
	}
	slices.Sort(out)
	return out
}

func metricNames(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestDigestAndMetrics runs every workload's short mode: the same seed
// gives the same simulated-output digest, another seed a different one,
// the engine worker count does not change it, and every run reports
// exactly the metrics BENCHMARK.json lists.
func TestDigestAndMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if got, want := names(bf.Workloads), slices.Sorted(slices.Values(workloadNames())); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", got, want)
	}

	digests := map[string]string{}
	for _, w := range workloads {
		if testing.Short() && w.name == "sort-wide" {
			continue
		}
		a := shortRun(t, w.name, 11, false)
		if got := metricNames(a.metrics); !slices.Equal(got, names(bf.EndToEnd)) {
			t.Errorf("%s reports %v, BENCHMARK.json lists %v", w.name, got, names(bf.EndToEnd))
		}
		b := shortRun(t, w.name, 11, false)
		c := shortRun(t, w.name, 12, false)
		if a.digest != b.digest {
			t.Errorf("%s: seed 11 gave digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 11 and 12 both gave digest %s", w.name, a.digest)
		}
		digests[w.name] = a.digest
	}
	if wide, ok := digests["sort-wide"]; ok && wide != digests["sort"] {
		t.Errorf("sort digest %s differs from sort-wide %s: the worker count changed the simulation", digests["sort"], wide)
	}

	traced := shortRun(t, "small-mix", 11, true)
	if got := metricNames(traced.metrics); !slices.Equal(got, names(bf.PerLayer)) {
		t.Errorf("traced run reports %v, BENCHMARK.json lists %v", got, names(bf.PerLayer))
	}
	if traced.digest != digests["small-mix"] {
		t.Errorf("traced small-mix digest %s, untraced %s", traced.digest, digests["small-mix"])
	}
}

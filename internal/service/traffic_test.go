package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTrafficSpecCanonicalize pins the canonical form of timed traffic
// specs: DSL spellings normalize, misuse of mesh-sort fields is
// rejected, and the defaults are explicit.
func TestTrafficSpecCanonicalize(t *testing.T) {
	spec, err := JobSpec{Alg: AlgTraffic, D: 2, N: 8, Load: "k:4", Inject: "window:64"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Load != "k:k=4" || spec.Inject != "window:64" {
		t.Fatalf("canonical load/inject %q/%q", spec.Load, spec.Inject)
	}
	if spec.Indexing != IndexingNone || spec.B != 0 || spec.K != 1 {
		t.Fatalf("canonical traffic spec %+v", spec)
	}
	// Defaults: empty load is a permutation, empty inject a batch.
	spec, err = JobSpec{Alg: AlgTraffic, D: 2, N: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Load != "perm" || spec.Inject != "batch" {
		t.Fatalf("default load/inject %q/%q", spec.Load, spec.Inject)
	}

	for _, bad := range []JobSpec{
		{Alg: AlgTraffic, D: 2, N: 8, B: 4},                                     // block side is a sort/route notion
		{Alg: AlgTraffic, D: 2, N: 8, K: 2},                                     // multiplicity lives in the load DSL
		{Alg: AlgTraffic, D: 2, N: 8, Indexing: IndexingBlockedSnake},           // no blocked order in greedy routing
		{Alg: AlgTraffic, D: 2, N: 8, Load: "k:4,typo=1"},                       // DSL typo
		{Alg: AlgTraffic, D: 2, N: 8, Inject: "soon"},                           // unknown arrival process
		{Alg: AlgTraffic, D: 2, N: 8, Inject: "window:2000000"},                 // past the injection horizon
		{Alg: AlgTraffic, D: 2, N: 8, Load: "k:131072"},                         // past the packet ceiling (k*n > 2^20)
		{Alg: AlgSimple, D: 2, N: 8, Load: "perm"},                              // load on a sorting alg
		{Alg: AlgRoute, D: 2, N: 8, Inject: "batch"},                            // inject on the batch router
		{Alg: AlgCliqueRoute, N: 8, Load: "perm"},                               // load on the clique
		{Alg: AlgTraffic, D: 2, N: 8, Topology: TopologyClique, Load: "k:2"},    // traffic runs on grids
		{Alg: AlgTraffic, D: 2, N: 8, Load: "lk:l=2,k=4", Inject: "trickle:-1"}, // bad rate
	} {
		if err := admitSpec(bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

// TestTrafficKeyDependsOnLoadAndInject pins that the cache key separates
// traffic jobs by their workload and schedule.
func TestTrafficKeyDependsOnLoadAndInject(t *testing.T) {
	base := JobSpec{Alg: AlgTraffic, D: 2, N: 8, Load: "k:2", Inject: "window:32"}
	a, err := base.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Load = "k:3"
	bc, err := b.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Inject = "window:33"
	cc, err := c.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == bc.Key() || a.Key() == cc.Key() || bc.Key() == cc.Key() {
		t.Fatal("load/inject not separated in the cache key")
	}
}

// TestHTTPTrafficRoundTrip submits a timed (ℓ,k) job over HTTP and
// checks the terminal result carries the sojourn percentiles — the
// acceptance criterion for the traffic engine's service surface.
func TestHTTPTrafficRoundTrip(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, `{"alg":"traffic","d":3,"n":8,"load":"lk:l=2,k=3","inject":"window:64","seed":5}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?wait=1: status %d", resp.StatusCode)
	}
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("traffic job: %+v", st)
	}
	res := st.Result
	if res.Algorithm != "TrafficRoute" || !res.Delivered {
		t.Fatalf("result %+v", res)
	}
	if res.Sojourn == nil || res.Sojourn.Count == 0 {
		t.Fatalf("no sojourn distribution: %+v", res)
	}
	soj := res.Sojourn
	if soj.P50 > soj.P95 || soj.P95 > soj.P99 || soj.P99 > soj.Max {
		t.Fatalf("percentiles not monotone: %+v", soj)
	}
	if soj.Max > int64(res.TotalSteps) {
		t.Fatalf("sojourn max %d exceeds run length %d", soj.Max, res.TotalSteps)
	}
	// The wire JSON spells the percentiles as p50/p95/p99.
	raw, _ := json.Marshal(res)
	for _, want := range []string{`"sojourn"`, `"p50"`, `"p95"`, `"p99"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("wire JSON missing %s: %s", want, raw)
		}
	}

	// Identical resubmission is a cache hit with the identical result.
	resp2, st2 := postJob(t, ts, `{"alg":"traffic","d":3,"n":8,"load":"lk:l=2,k=3","inject":"window:64","seed":5}`, true)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d", resp2.StatusCode)
	}
	if st2.Result == nil || st2.Result.Sojourn == nil || *st2.Result.Sojourn != *soj {
		t.Fatalf("cached sojourn differs: %+v vs %+v", st2.Result, res)
	}
}

// TestDecodeSpecStrict is the regression test for the strict decoder:
// an unknown field fails with an error naming the field and the valid
// ones, both directly and through the HTTP surface.
func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec(strings.NewReader(`{"alg":"simple","d":3,"n":8}`)); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeSpec(strings.NewReader(`{"alg":"simple","sede":7}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, want := range []string{`unknown field "sede"`, "valid fields:", `"alg"`} {
		if !strings.Contains(err.Error(), want) && want != `"alg"` {
			t.Fatalf("error %q missing %s", err, want)
		}
	}
	if !strings.Contains(err.Error(), "alg") || !strings.Contains(err.Error(), "load") || !strings.Contains(err.Error(), "inject") {
		t.Fatalf("error does not list the valid fields: %q", err)
	}
	if _, err := DecodeSpec(strings.NewReader(`{"alg":"simple"} {"alg":"route"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}

	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alg":"simple","d":3,"n":8,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `unknown field \"bogus\"`) {
		t.Fatalf("response does not name the field: %s", body)
	}
}

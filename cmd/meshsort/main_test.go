package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/route"
	"meshsort/internal/service"
)

func TestPrintHeatmapRuns(t *testing.T) {
	// Smoke: the heatmap renderer must handle loaded and empty networks
	// in 2 and 3 dimensions without panicking.
	for _, s := range []grid.Shape{grid.New(2, 8), grid.New(3, 4)} {
		net := engine.New(s)
		net.SetCountLoads(true)
		prob := perm.Reversal(s)
		pkts := make([]*engine.Packet, prob.Size())
		for i := range pkts {
			pkts[i] = net.NewPacket(0, prob.Src[i])
			pkts[i].Dst = prob.Dst[i]
		}
		net.Inject(pkts)
		if _, err := net.Route(route.NewGreedy(s), engine.RouteOpts{}); err != nil {
			t.Fatal(err)
		}
		printHeatmap(net)
	}
	printHeatmap(engine.New(grid.New(2, 4))) // no loads counted
}

// TestCLIRunsAboveServiceCeiling pins where the resource ceilings live:
// a valid spec above service.MaxSide runs through the CLI's job-model
// path, while meshsortd rejects the same spec with 400.
func TestCLIRunsAboveServiceCeiling(t *testing.T) {
	const body = `{"alg":"route","d":2,"n":80}`
	if 80 <= service.MaxSide {
		t.Fatalf("n=80 is no longer above MaxSide=%d; pick a larger side", service.MaxSide)
	}
	spec, err := service.DecodeSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	spec, err = spec.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize rejected an over-ceiling spec: %v", err)
	}
	pool := engine.NewPool(1)
	defer pool.Close()
	res, err := runJob(spec, pool, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.N != 6400 || res.RouteSteps == 0 {
		t.Errorf("implausible CLI result: %+v", res)
	}

	svc := service.New(service.Options{Runners: 1, WorkersPerRunner: 1})
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "out of range [2,64]") {
		t.Errorf("POST /v1/jobs: %d %s, want 400 naming the side ceiling", rec.Code, rec.Body.String())
	}
}

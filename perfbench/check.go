package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"slices"

	"meshsort/internal/core"
	"meshsort/internal/service"
	"meshsort/internal/traffic"
)

// response is a decoded POST /v1/jobs reply: the job status with its
// result both raw, for the cache-hit comparison, and decoded.
type response struct {
	code     int
	Status   string          `json:"status"`
	CacheHit bool            `json:"cacheHit"`
	Error    string          `json:"error"`
	Raw      json.RawMessage `json:"result"`
	result   service.Result
}

func decodeResponse(code int, body []byte) (*response, error) {
	r := &response{code: code}
	if err := json.Unmarshal(body, r); err != nil {
		return r, fmt.Errorf("decode response: %w", err)
	}
	if len(r.Raw) > 0 {
		if err := json.Unmarshal(r.Raw, &r.result); err != nil {
			return r, fmt.Errorf("decode result: %w", err)
		}
	}
	return r, nil
}

// gate applies the correctness conditions every response must meet.
// first is the raw result of the job this one repeats, nil for a fresh
// spec; a repeat must be a cache hit with a byte-identical result.
func gate(alg string, r *response, first json.RawMessage) error {
	if r.code != http.StatusOK || r.Status != service.StatusDone {
		return fmt.Errorf("HTTP %d status %q: %s", r.code, r.Status, r.Error)
	}
	res := &r.result
	if !res.Delivered {
		return errors.New("not delivered")
	}
	switch alg {
	case service.AlgSimple, service.AlgCopy, service.AlgTorusSort, service.AlgFull:
		if !res.Sorted {
			return errors.New("not sorted")
		}
	case service.AlgTraffic:
		if res.Sojourn == nil || res.Sojourn.Count == 0 {
			return errors.New("traffic job without sojourn samples")
		}
	}
	if res.Bound > 0 && res.RouteSteps > res.Bound {
		return fmt.Errorf("%d route steps over the bound %d", res.RouteSteps, res.Bound)
	}
	if first != nil {
		if !r.CacheHit {
			return errors.New("repeated spec was not a cache hit")
		}
		if !bytes.Equal(first, r.Raw) {
			return errors.New("cache hit differs from the first response")
		}
	}
	return nil
}

// verifyOutput recomputes what the job must have produced from its
// spec alone: the sorted keys' digest for a sort, the selected rank's
// key for a selection, and the moving packet count for a traffic job. Routing
// jobs are covered by the gate (delivered within the bound).
func verifyOutput(spec service.JobSpec, res *service.Result) error {
	canon, err := spec.Canonicalize()
	if err != nil {
		return err
	}
	switch canon.Alg {
	case service.AlgSimple, service.AlgSelect:
		keys := core.RandomKeys(canon.Shape(), canon.K, canon.Seed+1)
		slices.Sort(keys)
		if canon.Alg == service.AlgSelect {
			if want := keys[canon.Target]; res.Value != want {
				return fmt.Errorf("selected %d, rank %d holds %d", res.Value, canon.Target, want)
			}
			return nil
		}
		if want := service.KeySum(keys); res.KeySum != want {
			return fmt.Errorf("key digest %s, sorted keys give %s", res.KeySum, want)
		}
	case service.AlgTraffic:
		ld, err := traffic.ParseLoad(canon.Load)
		if err != nil {
			return err
		}
		ld.Seed = canon.Seed
		pairs, err := ld.Pairs(canon.Shape().N())
		if err != nil {
			return err
		}
		// A packet born at its destination never moves and is not timed.
		moving := int64(0)
		for _, p := range pairs {
			if p.Src != p.Dst {
				moving++
			}
		}
		if got := res.Sojourn.Count; got != moving {
			return fmt.Errorf("sojourn counted %d packets, the load moves %d", got, moving)
		}
	}
	return nil
}

// digestJobs is how many leading jobs of a stream the simulated-output
// digest folds. Every workload completes at least this many in any run,
// and the short mode runs exactly this many.
const digestJobs = 16

// digest folds the simulated outputs of a stream's leading jobs: total
// and route steps, the key digest and the sojourn percentiles. The same
// seed must give the same digest at any worker count; a speed change
// that alters simulated behaviour changes it.
type digest struct {
	h hash.Hash64
	n int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(res *service.Result) {
	if d.n >= digestJobs {
		return
	}
	d.n++
	fmt.Fprintf(d.h, "%d %d %s", res.TotalSteps, res.RouteSteps, res.KeySum)
	if s := res.Sojourn; s != nil {
		fmt.Fprintf(d.h, " %d %d %d %d %d", s.Count, s.P50, s.P95, s.P99, s.Max)
	}
	d.h.Write([]byte{'\n'})
}

func (d *digest) String() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.n) }

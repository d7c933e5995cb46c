package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"meshsort/internal/pipeline"
	"meshsort/internal/service"
)

// bench is one open service with its single client's state.
type bench struct {
	cfg     config
	svc     *service.Service
	h       http.Handler
	dir     string // journal directory, "" without a journal
	journal string

	stream *stream
	tally
	latencies  []float64 // ms per attempted job; +Inf for a failed one
	verifyTime time.Duration
	firsts     map[int]json.RawMessage // results a later job must repeat
	dig        *digest
	lead       leadCounts
	errs       int
}

// leadCounts sums exact simulated counts over the digest's leading jobs.
type leadCounts struct {
	jobs, trafficJobs   int
	steps, hops, soj99s int64
}

// openBench opens the service and completes one warm-up job per
// distinct runner shape; the returned duration is the set-up time.
func openBench(cfg config) (*bench, time.Duration, error) {
	start := time.Now()
	b := &bench{cfg: cfg, stream: newStream(cfg.w, cfg.seed), firsts: map[int]json.RawMessage{}, dig: newDigest()}
	if cfg.w.journal {
		dir, err := os.MkdirTemp("", "perfbench-journal-")
		if err != nil {
			return nil, 0, err
		}
		b.dir, b.journal = dir, filepath.Join(dir, "jobs.jsonl")
	}
	svc, err := service.Open(service.Options{Runners: cfg.w.runners, JournalPath: b.journal})
	if err != nil {
		os.RemoveAll(b.dir)
		return nil, 0, fmt.Errorf("open service: %w", err)
	}
	b.svc, b.h = svc, svc.Handler()
	for _, j := range cfg.w.warmups(cfg.seed) {
		r, _, err := b.post(j.body)
		if err == nil {
			err = gate(j.spec.Alg, r, nil)
		}
		if err != nil {
			b.close()
			return nil, 0, fmt.Errorf("warm-up %s: %w", j.body, err)
		}
	}
	return b, time.Since(start), nil
}

func (b *bench) close() {
	b.svc.Close()
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// post submits one spec and waits for its terminal status, timed from
// request construction to the decoded response.
func (b *bench) post(body []byte) (*response, time.Duration, error) {
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	r, err := decodeResponse(rec.Code, rec.Body.Bytes())
	return r, time.Since(start), err
}

// done reports whether the client should stop submitting.
func (b *bench) done(deadline time.Time) bool {
	if b.cfg.short {
		return b.attempted >= digestJobs
	}
	return !time.Now().Before(deadline)
}

// plain runs the closed loop untraced and reports the end-to-end metrics.
func (b *bench) plain(rep *report) error {
	start := time.Now()
	deadline := start.Add(b.cfg.window)
	for !b.done(deadline) {
		j := b.stream.next()
		r, lat, err := b.post(j.body)
		b.record(j, r, err, lat)
	}
	// Verifying outputs is the benchmark's work, not the service's: it
	// is left out of the window the throughput is taken over.
	window := time.Since(start) - b.verifyTime
	if b.attempted == 0 {
		return errNoJobs
	}
	b.endToEnd(rep, rep.metrics, window)
	return nil
}

// record checks one response and folds it into the tally, the latency
// samples and the digest.
func (b *bench) record(j job, r *response, err error, lat time.Duration) {
	i := len(b.latencies)
	var first json.RawMessage
	if j.repeatOf >= 0 {
		first = b.firsts[j.repeatOf]
		delete(b.firsts, j.repeatOf)
	}
	if err == nil {
		err = gate(j.spec.Alg, r, first)
	}
	if err == nil && j.repeatOf < 0 {
		t := time.Now()
		err = verifyOutput(j.spec, &r.result)
		b.verifyTime += time.Since(t)
	}
	var res service.Result
	if r != nil {
		res = r.result
	}
	b.dig.add(&res)
	if i < digestJobs {
		b.lead.add(&res)
	}
	if err != nil {
		if b.errs < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: job %d %s: %v\n", i, j.body, err)
		}
		b.errs++
		b.latencies = append(b.latencies, math.Inf(1))
	} else {
		if b.stream.repeated(i) {
			b.firsts[i] = r.Raw
		}
		b.latencies = append(b.latencies, ms(lat))
	}
	b.tally.add(err == nil)
}

func (l *leadCounts) add(res *service.Result) {
	l.jobs++
	for _, ph := range res.Phases {
		if ph.Kind == pipeline.KindRoute {
			l.steps += int64(ph.Steps)
			l.hops += ph.Hops
		}
	}
	if res.Sojourn != nil {
		l.trafficJobs++
		l.soj99s += res.Sojourn.P99
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

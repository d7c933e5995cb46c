// Command perfbench measures meshsortd as its clients see it. Each
// workload drives the service in process, through service.Handler with
// POST /v1/jobs?wait=1 and an httptest recorder, as a closed loop from
// one client, and checks every response. With --trace 1 it instead
// times the calls into each layer's public functions and replays each
// job directly on a warm runner, to split a job's time across the
// service, pipeline, engine, traffic and runtime layers.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload sort --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated jobs")
	seconds := flag.Float64("seconds", 25, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	short := flag.Bool("short", false, fmt.Sprintf("run exactly %d jobs after a single set-up", digestJobs))
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload one of %s, --trace 0 or 1, --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, short: *short})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println("perfbench:", l)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rep.failed() == 0, rep.attempted, rep.failed(), rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type config struct {
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool
	short  bool // exactly digestJobs jobs after one set-up, for tests
}

// A run opens the service and warms it at least minSetupReps times, and
// until the set-ups have taken setupBudget in all, so that a cheap
// set-up is sampled often enough for a steady median. The reported
// set-up time is the median.
const (
	minSetupReps = 7
	maxSetupReps = 41
	setupBudget  = 2 * time.Second
)

type report struct {
	tally
	digest  string
	metrics metrics
	lines   []string
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func run(cfg config) (*report, error) {
	w := cfg.w
	rep := &report{metrics: metrics{}}
	rep.linef("workload=%s seed=%d trace=%t nproc=%d gomaxprocs=%d runners=%d engine_workers=%d clients=1 loop=closed journal=%t",
		w.name, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.effectiveRunners(), w.engineWorkers(), w.journal)

	var b *bench
	var setups []float64
	var total time.Duration
	for len(setups) < maxSetupReps && (len(setups) < minSetupReps || total < setupBudget) {
		if b != nil {
			// Hand the closed service's memory back, so that set-ups do not
			// pile up resident pages and the peak is set by one service.
			b.close()
			debug.FreeOSMemory()
		}
		var err error
		var took time.Duration
		if b, took, err = openBench(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		total += took
		if cfg.short {
			break
		}
	}
	defer b.close()
	debug.FreeOSMemory()
	rep.linef("setup reps=%d median_s=%.6f", len(setups), median(setups))

	var err error
	if cfg.trace {
		err = b.traced(rep)
	} else {
		err = b.plain(rep)
	}
	if err != nil {
		return nil, err
	}
	rep.tally = b.tally
	rep.digest = b.dig.String()
	rep.linef("digest=%s", rep.digest)
	if !cfg.trace {
		rep.metrics.set("setup_s", "s", median(setups))
		rep.metrics.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return rep, nil
}

// endToEnd adds the client-side figures of a timed window: throughput,
// the median and tail latency, and the correct share.
func (b *bench) endToEnd(rep *report, m metrics, window time.Duration) {
	lat := append([]float64(nil), b.latencies...)
	// A refused or failed job never delivered a result: it counts as
	// slower than any successful one, at the window's full length.
	for i := range lat {
		if math.IsInf(lat[i], 1) {
			lat[i] = ms(window)
		}
	}
	sort.Float64s(lat)
	n := len(lat)
	rep.linef("window_s=%.3f attempted=%d correct=%d verify_s=%.3f", window.Seconds(), b.attempted, b.correct, b.verifyTime.Seconds())
	rep.linef("latency samples=%d beyond_p90=%d highest_percentile_with_%d_beyond=p%g",
		n, beyond(n, 900), minBeyond, float64(highestPercentile(n))/10)
	m.set("jobs_per_s", "1/s", float64(b.correct)/window.Seconds())
	m.set("latency_p50_ms", "ms", nearestRank(lat, 500))
	m.set("latency_p90_ms", "ms", nearestRank(lat, 900))
	m.set("ok_frac", "fraction", b.okFrac())
}

var errNoJobs = errors.New("no job completed in the timed window")

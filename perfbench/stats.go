package main

import (
	"fmt"
	"regexp"
	"sort"
	"time"
)

// Percentiles are given in per-mille (900 is p90) so that ranks are
// computed in integers: 0.9*100 is not exactly 90 in floating point.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// minBeyond is how many samples must lie above a reported percentile
// for it to say anything about the tail.
const minBeyond = 10

// nearestRank returns the nearest-rank percentile pm (per-mille, 1..1000)
// of sorted: the smallest sample with at least pm/1000 of the samples at
// or below it. It returns 0 for no samples.
func nearestRank(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pm)-1]
}

// rank is the 1-based nearest rank of percentile pm among n samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples above the nearest-rank percentile pm.
func beyond(n, pm int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, pm)
}

// highestPercentile returns the highest ladder percentile with at least
// minBeyond samples beyond it among n samples, or 0 when even the median
// has fewer.
func highestPercentile(n int) int {
	best := 0
	for _, pm := range percentileLadder {
		if beyond(n, pm) >= minBeyond {
			best = pm
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 500)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported figure, in the form the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named figures and checks every name and unit against
// the benchmark's naming rules.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if !metricUnit.MatchString(unit) {
		panic(fmt.Sprintf("perfbench: bad unit %q for %s", unit, name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %s set twice", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// tally counts attempted and correct jobs. A job that was refused
// (429), failed, or produced a wrong output counts as attempted and not
// correct.
type tally struct{ attempted, correct int }

func (t *tally) add(ok bool) {
	t.attempted++
	if ok {
		t.correct++
	}
}

func (t tally) failed() int { return t.attempted - t.correct }

func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.correct) / float64(t.attempted)
}

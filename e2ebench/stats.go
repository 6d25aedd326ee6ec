package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// summary is a latency sample reduced by the benchmark's percentile rule:
// the median, plus the highest percentile of tailLevels that has at least
// ten samples beyond it, plus the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when even the median has fewer than ten samples beyond it
	Tail    float64
	// P99 is the 99th percentile when the sample supports it, else Tail.
	P99 float64
}

// tailLevels are the percentiles the rule chooses from, highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile of sorted by the nearest-rank
// method: the smallest sample with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps decimal levels such as 99.9, which binary floating
// point holds slightly above their value, from rounding up a rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// supportedTail returns the highest level in tailLevels with at least
// minBeyond of n samples above its rank, or 0 if none qualifies.
func supportedTail(n int) float64 {
	for _, p := range tailLevels {
		if n > 0 && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// summarize applies the percentile rule to samples (any unit).
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50)}
	if p := supportedTail(len(s)); p > 0 {
		out.TailPct = p
		out.Tail = percentile(s, p)
	}
	out.P99 = out.Tail
	if out.TailPct >= 99 {
		out.P99 = percentile(s, 99)
	}
	return out
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openLoopLatency is the latency of a request in an open loop: from when
// it was due to be sent to when its reply arrived. Timing from the due
// time rather than the actual send time makes a stalled generator inflate
// latency instead of hiding it.
func openLoopLatency(due, replied time.Time) time.Duration { return replied.Sub(due) }

// metricsSnapshot is the JSON payload of the bare METRICS command.
type metricsSnapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]histSnapshot `json:"histograms"`
}

type histSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
}

func parseMetrics(payload string) (metricsSnapshot, error) {
	var m metricsSnapshot
	if err := json.Unmarshal([]byte(payload), &m); err != nil {
		return m, fmt.Errorf("decode METRICS: %w", err)
	}
	return m, nil
}

// metricsDelta accumulates counter and histogram changes over one or
// more intervals, each bracketed by two METRICS snapshots.
type metricsDelta struct {
	counters map[string]float64
	hists    map[string]histSnapshot // count and sum of the observations in the intervals
}

// add accumulates the change from before to after.
func (d *metricsDelta) add(before, after metricsSnapshot) {
	if d.counters == nil {
		d.counters = make(map[string]float64)
		d.hists = make(map[string]histSnapshot)
	}
	for name, v := range after.Counters {
		d.counters[name] += float64(v) - float64(before.Counters[name])
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		acc := d.hists[name]
		acc.Count += h.Count - b.Count
		acc.Sum += h.Sum - b.Sum
		d.hists[name] = acc
	}
}

// counter is a counter's accumulated change (0 if absent).
func (d metricsDelta) counter(name string) float64 { return d.counters[name] }

// count is how many observations a histogram gained.
func (d metricsDelta) count(name string) float64 { return float64(d.hists[name].Count) }

// mean is the mean observation a histogram gained (in its unit), 0 when
// it gained none.
func (d metricsDelta) mean(name string) float64 {
	h := d.hists[name]
	return ratio(h.Sum, float64(h.Count))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics and rejects invalid names, units and
// non-finite values at the point they are added.
type metricSet struct {
	m   map[string]metric
	err error
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) add(name, unit string, v float64) {
	switch {
	case s.err != nil:
	case !nameRe.MatchString(name):
		s.err = fmt.Errorf("invalid metric name %q", name)
	case !unitRe.MatchString(unit):
		s.err = fmt.Errorf("invalid unit %q for %s", unit, name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.err = fmt.Errorf("metric %s is not finite", name)
	default:
		if _, dup := s.m[name]; dup {
			s.err = fmt.Errorf("metric %s reported twice", name)
			return
		}
		s.m[name] = metric{Value: v, Unit: unit}
	}
}

// median of a small sample (not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

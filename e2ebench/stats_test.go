package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsTailAndCount(t *testing.T) {
	// 1..1000: the sample supports p99 (10 samples beyond it) but not p99.9.
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(v)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 || s.P99 != 990 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if v[0] != 1000 {
		t.Fatal("summarize modified its input")
	}
	// 200 samples support only p90; P99 then falls back to that tail.
	s = summarize(v[:200])
	if s.N != 200 || s.TailPct != 90 || s.P99 != s.Tail {
		t.Fatalf("summarize(200 samples) = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.TailPct != 0 || s.P50 != 0 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
}

func TestOpenLoopLatencyCountsGeneratorStall(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(40 * time.Millisecond) // the generator stalled 40ms
	replied := sent.Add(time.Millisecond)
	if got := openLoopLatency(due, replied); got != 41*time.Millisecond {
		t.Fatalf("latency = %v, want 41ms (from the due time, not the send time)", got)
	}
}

func TestMetricsDelta(t *testing.T) {
	snap := func(payload string) metricsSnapshot {
		t.Helper()
		m, err := parseMetrics(payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	s0 := snap(`{"counters":{"c":10},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1,0],"count":4,"sum":2.0}}}`)
	s1 := snap(`{"counters":{"c":15},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1,0],"count":6,"sum":3.0}}}`)
	s2 := snap(`{"counters":{"c":20,"new":3},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1,0],"count":8,"sum":6.0}}}`)
	var d metricsDelta
	d.add(s0, s1)
	if d.counter("c") != 5 || d.count("h") != 2 || d.mean("h") != 0.5 {
		t.Fatalf("one interval: c=%v count=%v mean=%v", d.counter("c"), d.count("h"), d.mean("h"))
	}
	// A second, disjoint interval accumulates: the mean is over all
	// observations of both intervals, not a mean of means.
	d.add(s1, s2)
	if d.counter("c") != 10 || d.counter("new") != 3 || d.count("h") != 4 || d.mean("h") != 1 {
		t.Fatalf("two intervals: c=%v new=%v count=%v mean=%v", d.counter("c"), d.counter("new"), d.count("h"), d.mean("h"))
	}
	var empty metricsDelta
	if empty.mean("h") != 0 || empty.counter("c") != 0 {
		t.Fatal("empty delta must read 0")
	}
}

func TestMetricSetValidates(t *testing.T) {
	for _, c := range []struct {
		name, unit string
		v          float64
	}{
		{"bad name", "ms", 1},
		{"_leading", "ms", 1},
		{"ok", "µs", 1},
		{"ok", "", 1},
		{"nan", "ms", math.NaN()},
		{"inf", "ms", math.Inf(1)},
	} {
		s := newMetricSet()
		s.add(c.name, c.unit, c.v)
		if s.err == nil {
			t.Errorf("add(%q, %q, %v) accepted", c.name, c.unit, c.v)
		}
	}
	s := newMetricSet()
	s.add("core.stage.filter_ns", "ns", 1)
	s.add("peak_rows_per_s", "rows/s", 2)
	if s.err != nil {
		t.Fatal(s.err)
	}
	s.add("peak_rows_per_s", "rows/s", 3)
	if s.err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// fakeMeasurement has every field the report functions read.
func fakeMeasurement() *measurement {
	rd := round{closedRows: 1000, closedWall: time.Second, closedCPU: 0.5, openCPU: 0.2,
		ack: []float64{1, 2, 3}, result: []float64{2, 3}, read: []float64{0.5}}
	return &measurement{
		setupS: []float64{0.01}, rounds: []round{rd, rd}, lag: []float64{0.1},
		timedWall: 2 * time.Second, genCPU: 0.1, recovery: []float64{0.1}, rssMB: 10,
		acked: 3000, dataLines: 10, dataBytes: 1000,
		explainTiming: map[string]string{"q": "  stage filter    10 timed runs, 500 ns total\n"},
	}
}

// TestReportMatchesBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	e2e := newMetricSet()
	endToEnd(e2e, fakeMeasurement())
	pl := newMetricSet()
	perLayer(pl, fakeMeasurement(), fakeMeasurement(), &replayResult{batches: 1, rows: 1})
	for _, c := range []struct {
		set  *metricSet
		want []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {pl, spec.PerLayer}} {
		if c.set.err != nil {
			t.Fatal(c.set.err)
		}
		if len(c.set.m) != len(c.want) {
			t.Errorf("program reports %d metrics, BENCHMARK.json lists %d", len(c.set.m), len(c.want))
		}
		for _, w := range c.want {
			got, ok := c.set.m[w.Name]
			if !ok || got.Unit != w.Unit {
				t.Errorf("metric %s (%s): program reports %+v", w.Name, w.Unit, got)
			}
		}
	}
}

func TestCleanRounds(t *testing.T) {
	rs := make([]round, 9)
	for i := range rs {
		rs[i].steal = 0.01
	}
	rs[2].steal, rs[7].steal = 0.19, 0.16
	if got := cleanRounds(rs); len(got) != 7 {
		t.Fatalf("kept %d rounds, want the 7 clean ones", len(got))
	}
	for i := 0; i < 5; i++ {
		rs[i].steal = 0.2
	}
	if got := cleanRounds(rs); len(got) != 9 {
		t.Fatalf("kept %d rounds; with fewer than %d clean ones all must be kept", len(got), minCleanRounds)
	}
}

// Command e2ebench is the repository's end-to-end benchmark. It starts
// the real asdbd (and, for routed-replica, asdb-router and a follower
// asdbd), drives them over TCP from one process with two connections —
// an ingest connection that owns the queries and sends INSERTBATCH, and
// a subscriber connection that SUBSCRIBEs to every query — and prints
// one JSON result line. See README.md.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	e2ebench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds a whole invocation; past it the benchmark kills its
// daemons and exits non-zero rather than hang.
const runLimit = 175 * time.Second

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lagP99    float64           // untraced pass's generator lag, for the host line
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	// The load generator keeps to two OS threads running Go code, matching
	// the two-CPU reference host; the daemons get the rest of the machine.
	runtime.GOMAXPROCS(2)
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds per pass (closed + open loop)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := fs.String("bin", "", "directory holding the asdbd and asdb-router binaries")
	work := fs.String("work", "", "private scratch directory (data dirs, daemon logs)")
	commit := fs.String("commit", "unknown", "source revision, recorded with the host")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("need -bin, -work, --seconds ≥ 1 and --trace 0|1")
		}
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer killAll()
	watchdog := time.AfterFunc(runLimit, func() {
		killAll()
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		killAll()
		fmt.Fprintln(os.Stderr, "e2ebench: stopped by", sig)
		os.Exit(1)
	}()

	o := options{seconds: *seconds, seed: *seed, bin: *bin, work: *work}
	res, err := runWorkload(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	host, _ := json.Marshal(hostRecord(*commit, res.lagP99))
	fmt.Println(string(host))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runWorkload makes the inputs and runs the workload's passes: one
// untraced pass for the end-to-end metrics, plus (with trace) a traced
// pass and the in-process replay for the per-layer metrics.
func runWorkload(w *workload, o options, trace bool) (*result, error) {
	pool, err := w.gen(o.seed, w.poolBatches)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	m, err := pass(w, o, pool, false, "plain")
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: m.attempted, Failed: m.failed}
	set := newMetricSet()
	if !trace {
		endToEnd(set, m)
	} else {
		tm, err := pass(w, o, pool, true, "traced")
		if err != nil {
			return nil, err
		}
		rp, err := replay(w, o, pool, tm)
		if err != nil {
			return nil, err
		}
		res.Attempted += tm.attempted + rp.attempted
		res.Failed += tm.failed + rp.failed
		tm.problems = append(tm.problems, rp.problems...)
		m.problems = append(m.problems, tm.problems...)
		perLayer(set, m, tm, rp)
	}
	if set.err != nil {
		return nil, set.err
	}
	lag := summarize(m.lag)
	valid := lag.P50 <= maxLagP50MS && lag.P99 <= maxLagP99MS
	fmt.Fprintf(os.Stderr, "e2ebench: generator lag p50 %.3f ms, p99 %.3f ms over %d sends\n", lag.P50, lag.P99, lag.N)
	if !valid {
		fmt.Fprintf(os.Stderr, "e2ebench: invalid run: the generator ran late (limits: p50 %v ms, p99 %v ms)\n", maxLagP50MS, maxLagP99MS)
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	res.Correct = res.Failed == 0 && valid
	res.lagP99 = lag.P99
	res.Metrics = set.m
	return res, nil
}

// How late the open-loop generator may send before a run is reported
// invalid. The median catches a generator that cannot keep up; the p99
// limit is loose because the host itself stalls for ~13 ms at times
// (observed on the reference host), which delays the daemons as much as
// the generator, and a send late by a stall is timed from its due time
// anyway, so the stall is counted rather than hidden.
const (
	maxLagP50MS = 1.0
	maxLagP99MS = 50.0
)

// hostRecord describes where a result was measured, and how late the
// generator ran (reported for every run, traced or not).
func hostRecord(commit string, lagP99 float64) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpu,
			"commit":     commit,
		},
		"loadgen": map[string]any{"lag_p99_ms": lagP99},
	}
}

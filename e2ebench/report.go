package main

import (
	"fmt"
	"os"
	"sort"
)

// roundMedian is the median over rounds of a per-round figure.
func roundMedian(rs []round, f func(round) float64) float64 {
	v := make([]float64, 0, len(rs))
	for _, r := range rs {
		v = append(v, f(r))
	}
	return median(v)
}

// pooled concatenates a per-round sample across rounds.
func pooled(rs []round, f func(round) []float64) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, f(r)...)
	}
	return v
}

// peakRate is the median over rounds of the closed-loop rows per second.
func peakRate(rs []round) float64 {
	return roundMedian(rs, func(r round) float64 { return float64(r.closedRows) / r.closedWall.Seconds() })
}

// cpuPerRowUS is the median over rounds of the daemons' CPU microseconds
// per row acknowledged in the closed loop.
func cpuPerRowUS(rs []round) float64 {
	return roundMedian(rs, func(r round) float64 { return r.closedCPU / float64(r.closedRows) * 1e6 })
}

// Rounds during which the hypervisor gave more than maxRoundSteal of the
// host's CPU time to other tenants measure the neighbours rather than the
// code (on the reference host such rounds showed ack latencies up to ten
// times the usual); the end-to-end medians leave them out as long as
// minCleanRounds remain.
const (
	maxRoundSteal  = 0.10
	minCleanRounds = 5
)

// cleanRounds returns the rounds the end-to-end medians use.
func cleanRounds(rs []round) []round {
	var clean []round
	for _, r := range rs {
		if r.steal <= maxRoundSteal {
			clean = append(clean, r)
		}
	}
	if len(clean) < minCleanRounds {
		return rs
	}
	return clean
}

// endToEnd adds the metrics a user of the system sees, from an untraced
// pass. Each is the median over the pass's rounds, less those spoilt by
// steal (see cleanRounds).
func endToEnd(out *metricSet, m *measurement) {
	rs := cleanRounds(m.rounds)
	out.add("setup_s", "s", median(m.setupS))
	out.add("peak_rows_per_s", "rows/s", peakRate(rs))
	out.add("server_cpu_us_per_row", "us", cpuPerRowUS(rs))
	out.add("ack_p50_ms", "ms", roundMedian(rs, func(r round) float64 { return summarize(r.ack).P50 }))
	out.add("result_p50_ms", "ms", roundMedian(rs, func(r round) float64 { return summarize(r.result).P50 }))
	out.add("recovery_s", "s", median(m.recovery))
	out.add("server_rss_mb", "MB", m.rssMB)
}

// perLayer adds the per-layer metrics of a traced run: m is the untraced
// pass (generator health, tails), tm the traced pass over TCP, rp the
// in-process replay of tm's batches. Metrics of a layer a workload does
// not use (the WAL on fleet-accuracy, the cluster elsewhere) read 0.
func perLayer(out *metricSet, m, tm *measurement, rp *replayResult) {
	lag := summarize(m.lag)
	out.add("loadgen.lag_p99_ms", "ms", lag.P99)
	out.add("loadgen.cpu_frac", "ratio", m.genCPU/m.timedWall.Seconds())
	ack := summarize(pooled(m.rounds, func(r round) []float64 { return r.ack }))
	res := summarize(pooled(m.rounds, func(r round) []float64 { return r.result }))
	read := summarize(pooled(m.rounds, func(r round) []float64 { return r.read }))
	out.add("ack_p99_ms", "ms", ack.P99)
	out.add("ack_tail_pct", "pct", ack.TailPct)
	out.add("ack_samples", "count", float64(ack.N))
	out.add("result_p99_ms", "ms", res.P99)
	out.add("result_tail_pct", "pct", res.TailPct)
	out.add("result_samples", "count", float64(res.N))
	out.add("read_p50_ms", "ms", roundMedian(m.rounds, func(r round) float64 { return summarize(r.read).P50 }))
	out.add("read_samples", "count", float64(read.N))

	cpu, closedRows := 0.0, 0
	for _, r := range tm.rounds {
		cpu += r.closedCPU + r.openCPU
		closedRows += r.closedRows
	}
	out.add("server.busy_frac", "ratio", cpu/tm.timedWall.Seconds())
	// How much of the host's CPU time the hypervisor gave to others during
	// the untraced pass: a run measured under heavy steal is suspect.
	out.add("host.steal_frac", "ratio", roundMedian(m.rounds, func(r round) float64 { return r.steal }))

	// c covers the closed-loop segments only, where every command is an
	// INSERTBATCH; all covers the open-loop segments too.
	c, all := tm.closed, tm.all
	cmdUS := c.mean("asdb_server_cmd_seconds") * 1e6
	out.add("server.cmd_us", "us", cmdUS)
	perReq := func(name string) float64 { return ratio(us(rp.self[name]), float64(rp.batches)) }
	perRow := func(name string) float64 { return ratio(us(rp.self[name]), float64(rp.rows)) }
	parse, engine := perReq("server.parse"), perReq("core.ingest")
	walUS, ckUS := perReq("wal.append")+perReq("wal.wait"), perReq("checkpoint")
	residual := cmdUS - parse - engine - walUS - ckUS
	out.add("server.parse_us_per_row", "us", perRow("server.parse"))
	out.add("server.residual_us_per_req", "us", residual)
	out.add("share.parse", "ratio", ratio(parse, cmdUS))
	out.add("share.engine", "ratio", ratio(engine, cmdUS))
	out.add("share.wal", "ratio", ratio(walUS, cmdUS))
	out.add("share.checkpoint", "ratio", ratio(ckUS, cmdUS))
	// The residual covers what has no public entry point: line read,
	// dedup, render, outbox and socket write.
	out.add("share.residual", "ratio", ratio(residual, cmdUS))
	out.add("server.data_lines_per_row", "ratio", ratio(float64(tm.dataLines), float64(tm.acked)))
	out.add("server.data_bytes_per_row", "B", ratio(float64(tm.dataBytes), float64(tm.acked)))
	out.add("server.slow_client_drops", "count", all.counter("asdb_server_slow_client_drops_total"))
	out.add("server.cmd_errors", "count", all.counter("asdb_server_cmd_errors_total"))

	out.add("core.ingest_us_per_row", "us", perRow("core.ingest"))
	out.add("core.shard_wait_us", "us", c.mean("asdb_ingest_shard_wait_seconds")*1e6)
	out.add("core.shard_lock_retries", "count", all.counter("asdb_ingest_shard_lock_retries_total"))
	st := parseTiming(tm.explainTiming)
	for _, stage := range []string{"filter", "window", "aggregate", "accuracy"} {
		out.add("core.stage."+stage+"_ns", "ns", ratio(st.ns[stage], float64(tm.acked)))
	}
	out.add("plan.replay_frac", "ratio", ratio(st.replayed, st.computed+st.replayed))
	// The query with the most stage time, and its share: no single query
	// family should dominate a workload's engine time.
	out.add("core.top_query_frac", "ratio", st.topFrac)
	total := 0.0
	ids := make([]string, 0, len(st.perQuery))
	for id, ns := range st.perQuery {
		total += ns
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "e2ebench: query %s: %.1f%% of the engine's stage time\n", id, 100*ratio(st.perQuery[id], total))
	}
	out.add("bootstrap.kernel_us", "us", c.mean("asdb_bootstrap_kernel_seconds")*1e6)
	disp, inl := c.counter("asdb_parallel_dispatch_total"), c.counter("asdb_parallel_inline_total")
	out.add("parallel.dispatch_frac", "ratio", ratio(disp, disp+inl))

	out.add("wal.append_us", "us", c.mean("asdb_wal_append_seconds")*1e6)
	out.add("wal.fsync_us", "us", c.mean("asdb_wal_fsync_seconds")*1e6)
	out.add("wal.wait_us_per_req", "us", perReq("wal.wait"))
	out.add("wal.fsyncs_per_krow", "ratio", ratio(c.counter("asdb_wal_fsync_total")*1000, float64(closedRows)))
	out.add("wal.bytes_per_row", "B", ratio(c.counter("asdb_wal_append_bytes_total"), float64(closedRows)))
	out.add("wal.coalesced_frac", "ratio", ratio(c.counter("asdb_wal_sync_coalesced_total"), c.counter("asdb_wal_sync_wait_total")))
	out.add("checkpoint.save_ms", "ms", all.mean("asdb_checkpoint_save_seconds")*1e3)
	out.add("checkpoint.bytes_per_save", "B", ratio(all.counter("asdb_checkpoint_save_bytes_total"), all.counter("asdb_checkpoint_saves_total")))
	out.add("checkpoint.restore_ms", "ms", ms(rp.restore))
	out.add("wal.replay_records", "count", m.replayRecords)

	out.add("cluster.ship_apply_p50_ms", "ms", summarize(tm.shipApply).P50)
	out.add("cluster.router_rtt_us", "us", tm.routerRTTus)
	out.add("cluster.lag_records_p99", "count", summarize(tm.lagRecords).P99)

	// Tracing overhead: the traced pass against the untraced one.
	out.add("trace.overhead_peak_frac", "ratio", 1-ratio(peakRate(tm.rounds), peakRate(m.rounds)))
	out.add("trace.overhead_cpu_frac", "ratio", ratio(cpuPerRowUS(tm.rounds), cpuPerRowUS(m.rounds))-1)
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/randvar"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run has two halves. Over TCP, a second pass enables
// EXPLAIN <id> TIMING on every query of the primary and reads the
// per-stage counters at the end. In process, replay then feeds the exact
// batches that pass sent through the layers' public Go functions, in the
// order cmdIngest calls them, with the daemon's core.Config, and records
// one span around each call. The replay also renders every result with
// the reference renderer and checks it against the DATA lines the pass
// received.

// enableTiming turns on per-stage timing on every query of the primary.
func (r *runner) enableTiming() error {
	c, done, err := r.control(r.primary)
	if err != nil {
		return err
	}
	defer done()
	for _, q := range r.w.queries {
		if _, err := c.do("EXPLAIN "+q.id+" TIMING", nil); err != nil {
			return err
		}
	}
	return nil
}

// readTiming collects EXPLAIN TIMING from the primary, and on
// routed-replica the router's added round-trip time.
func (r *runner) readTiming() error {
	c, done, err := r.control(r.primary)
	if err != nil {
		return err
	}
	defer done()
	r.m.explainTiming = make(map[string]string)
	for _, q := range r.w.queries {
		reply, err := c.do("EXPLAIN "+q.id+" TIMING", nil)
		if err != nil {
			return err
		}
		text, err := strconv.Unquote(strings.TrimPrefix(reply, "OK "))
		if err != nil {
			return fmt.Errorf("EXPLAIN %s TIMING: %w", q.id, err)
		}
		r.m.explainTiming[q.id] = text
	}
	if r.w.routed {
		return r.routerRTT()
	}
	return nil
}

// routerRTT times STATS through the router (which sends it to the
// follower) and straight to the follower, and keeps the difference of
// the medians.
func (r *runner) routerRTT() error {
	direct, err := dial(r.follower.addr(markClient))
	if err != nil {
		return err
	}
	defer direct.close()
	const n = 200
	via, dir := make([]float64, 0, n), make([]float64, 0, n)
	line := "STATS " + r.w.queries[0].id
	for i := 0; i < n; i++ {
		for _, c := range []*lineConn{r.ingest, direct} {
			t0 := time.Now()
			if _, err := c.do(line, nil); err != nil {
				return err
			}
			if c == direct {
				dir = append(dir, us(time.Since(t0)))
			} else {
				via = append(via, us(time.Since(t0)))
			}
		}
	}
	r.m.routerRTTus = median(via) - median(dir)
	return nil
}

// stageTotals sums EXPLAIN TIMING stage nanoseconds over queries, and
// the shared groups' computed and replayed emissions (each group once).
type stageTotals struct {
	ns                 map[string]float64
	computed, replayed float64
	// perQuery is each query's stage time; topFrac is the largest share.
	perQuery map[string]float64
	topFrac  float64
}

var (
	stageRe  = regexp.MustCompile(`stage (\w+)\s+(\d+) timed runs, (\d+) ns total`)
	sharedRe = regexp.MustCompile(`shared group \[(.*)\]: \d+ sharers, (\d+) emissions computed, (\d+) replayed`)
)

func parseTiming(texts map[string]string) stageTotals {
	t := stageTotals{ns: make(map[string]float64), perQuery: make(map[string]float64)}
	groups := make(map[string]bool)
	ids := make([]string, 0, len(texts))
	for id := range texts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	total, topNS := 0.0, 0.0
	for _, id := range ids {
		q := 0.0
		for _, m := range stageRe.FindAllStringSubmatch(texts[id], -1) {
			ns, _ := strconv.ParseFloat(m[3], 64)
			t.ns[m[1]] += ns
			q += ns
		}
		total += q
		t.perQuery[id] = q
		topNS = max(topNS, q)
		if m := sharedRe.FindStringSubmatch(texts[id]); m != nil && !groups[m[1]] {
			groups[m[1]] = true
			c, _ := strconv.ParseFloat(m[2], 64)
			rp, _ := strconv.ParseFloat(m[3], 64)
			t.computed += c
			t.replayed += rp
		}
	}
	t.topFrac = ratio(topNS, total)
	return t
}

// span is one timed call into a layer during the replay.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 for a root
	batch  int32
	start  time.Duration // since the replay began
	end    time.Duration
}

type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, batch: batch, start: time.Since(t.base)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.base) }

// self returns each span name's total duration minus the part covered by
// its child spans.
func (t *tracer) self() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := s.end - s.start
		out[s.name] += d
		if s.parent >= 0 {
			out[t.spans[s.parent].name] -= d
		}
	}
	return out
}

// write saves the spans as CSV: name,start_ns,end_ns,parent,batch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name,start_ns,end_ns,parent,batch")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.batch)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayResult is what the in-process replay measured and checked.
type replayResult struct {
	attempted, failed int
	problems          []string
	batches, rows     int
	self              map[string]time.Duration
	restore           time.Duration
}

func (rp *replayResult) fail(format string, args ...any) {
	rp.failed++
	if len(rp.problems) < 20 {
		rp.problems = append(rp.problems, fmt.Sprintf(format, args...))
	}
}

// daemonConfig is the core.Config asdbd builds from the workload's flags
// (see engineFlags and cmd/asdbd).
func daemonConfig(w *workload, dataDir string) core.Config {
	cfg := core.Config{
		Level:           engineLevel,
		Method:          core.AccuracyAnalytical,
		Seed:            engineSeed,
		FsyncPolicy:     "interval",
		CheckpointEvery: checkpointCad,
	}
	if w.durable {
		cfg.DataDir, cfg.FsyncPolicy = dataDir, w.fsync
	}
	return cfg
}

// replay re-executes the traced pass's commands in process and checks
// every DATA line against "DATA <id> " + json.Marshal(server.EncodeResult(r)).
func replay(w *workload, o options, pool []batch, tm *measurement) (*replayResult, error) {
	dir, err := freshDir(o.work, "replay")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := daemonConfig(w, dir)
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	rp := &replayResult{}
	t := &tracer{base: time.Now()}
	var (
		wl   *wal.Log
		ckm  *checkpoint.Manager
		defs []checkpoint.QueryDef
	)
	if w.durable {
		policy, err := wal.ParseFsyncPolicy(cfg.FsyncPolicy)
		if err != nil {
			return nil, err
		}
		if ckm, err = checkpoint.NewManager(filepath.Join(dir, "checkpoints")); err != nil {
			return nil, err
		}
		if wl, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: policy}); err != nil {
			return nil, err
		}
		defer wl.Close()
	}
	sinceCk := 0
	// journal mirrors the server: append inside the caller's critical
	// section, wait for durability outside it, checkpoint at the cadence.
	journal := func(typ wal.RecordType, payload string, parent, b int32) (uint64, error) {
		if wl == nil {
			return 0, nil
		}
		s := t.begin("wal.append", parent, b)
		lsn, err := wl.AppendAsync(typ, []byte(payload))
		t.end(s)
		sinceCk++
		return lsn, err
	}
	settle := func(lsn uint64, parent, b int32) error {
		if wl == nil {
			return nil
		}
		s := t.begin("wal.wait", parent, b)
		err := wl.WaitDurable(lsn)
		t.end(s)
		if err != nil || sinceCk < cfg.CheckpointEvery {
			return err
		}
		s = t.begin("checkpoint", parent, b)
		defer t.end(s)
		snap, err := checkpoint.Capture(eng, wl.LastLSN(), defs)
		if err != nil {
			return err
		}
		if err := ckm.Save(snap); err != nil {
			return err
		}
		sinceCk = 0
		return wl.TruncateThrough(snap.LSN)
	}

	for _, s := range w.streams {
		f := strings.Fields(s)
		schema, err := server.ParseStreamDef(f[0], f[1:])
		if err != nil {
			return nil, err
		}
		if err := eng.RegisterStream(schema); err != nil {
			return nil, err
		}
		lsn, err := journal(wal.RecStream, s, -1, -1)
		if err == nil {
			err = settle(lsn, -1, -1)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, q := range w.queries {
		cq, err := eng.Compile(q.sql)
		if err != nil {
			return nil, err
		}
		if err := eng.Bind(q.id, cq); err != nil {
			return nil, err
		}
		defs = append(defs, checkpoint.QueryDef{ID: q.id, SQL: q.sql, Query: cq})
		sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
		lsn, err := journal(wal.RecQuery, q.id+" "+q.sql, -1, -1)
		if err == nil {
			err = settle(lsn, -1, -1)
		}
		if err != nil {
			return nil, err
		}
	}

	qidx := make(map[string]int)
	for i, q := range w.queries {
		qidx[q.id] = i
	}
	cursor := make([]int, len(w.queries))
	for g, pi := range tm.sent {
		b := pool[pi]
		bi := int32(g)
		root := t.begin("cmd", -1, bi)
		payload := b.payload()
		s := t.begin("server.parse", root, bi)
		streamName, rows, err := parseRows(payload)
		t.end(s)
		if err != nil {
			return nil, err
		}
		var lsn uint64
		s = t.begin("core.ingest", root, bi)
		results, err := eng.IngestBatch(streamName, rows, func() error {
			var jerr error
			lsn, jerr = journal(wal.RecInsertBatch, payload, s, bi)
			return jerr
		})
		t.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", g, err)
		}
		if err := settle(lsn, root, bi); err != nil {
			return nil, err
		}
		s = t.begin("render", root, bi)
		for _, qr := range results {
			q := qidx[qr.ID]
			if qr.Err != nil {
				rp.fail("replay batch %d: query %s: %v", g, qr.ID, qr.Err)
			}
			for _, res := range qr.Results {
				js, err := json.Marshal(server.EncodeResult(res))
				if err != nil {
					return nil, err
				}
				line := append([]byte("DATA "+qr.ID+" "), js...)
				rp.attempted++
				if cursor[q] >= len(tm.ingest[q]) {
					rp.fail("query %s: reference has more lines than the wire (%d)", qr.ID, len(tm.ingest[q]))
					continue
				}
				got := tm.ingest[q][cursor[q]]
				cursor[q]++
				if got.hash != lineHash(line) || int(got.size) != len(line) || int(got.batch) != g {
					rp.fail("query %s line %d: wire bytes differ from the reference renderer", qr.ID, cursor[q]-1)
				}
			}
		}
		t.end(s)
		t.end(root)
		rp.batches++
		rp.rows += b.rows
	}
	for q := range w.queries {
		if cursor[q] != len(tm.ingest[q]) {
			rp.fail("query %s: wire had %d lines, reference %d", w.queries[q].id, len(tm.ingest[q]), cursor[q])
		}
	}
	if ckm != nil {
		if err := wl.Sync(); err != nil {
			return nil, err
		}
		s := t.begin("checkpoint.restore", -1, -1)
		snap, err := ckm.LoadLatest()
		if err == nil && snap != nil {
			var fresh *core.Engine
			if fresh, err = core.NewEngine(cfg); err == nil {
				_, err = checkpoint.Restore(fresh, snap)
			}
		}
		t.end(s)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		if snap == nil {
			return nil, errors.New("replay wrote no checkpoint")
		}
		rp.restore = t.spans[s].end - t.spans[s].start
	}
	rp.self = t.self()
	if err := t.write(filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.csv", w.name, o.seed))); err != nil {
		return nil, err
	}
	return rp, nil
}

// parseRows splits an INSERTBATCH payload as the server does: the stream
// name, then fields separated by spaces with "|" between tuples, each
// parsed by server.ParseFieldSpec.
func parseRows(payload string) (string, []core.IngestRow, error) {
	fields := strings.Fields(payload)
	if len(fields) < 2 {
		return "", nil, errors.New("empty batch")
	}
	var rows []core.IngestRow
	cur := make([]randvar.Field, 0, len(fields)-1)
	for _, tok := range fields[1:] {
		if tok == "|" {
			rows = append(rows, core.IngestRow{Fields: cur})
			cur = make([]randvar.Field, 0, cap(cur))
			continue
		}
		f, err := server.ParseFieldSpec(tok)
		if err != nil {
			return "", nil, err
		}
		cur = append(cur, f)
	}
	rows = append(rows, core.IngestRow{Fields: cur})
	return fields[0], rows, nil
}

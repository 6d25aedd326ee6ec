package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Fixed run shape. The closed-loop and open-loop phases split the
// measured seconds; everything else is set-up or checking.
const (
	setups        = 11                     // set-ups per run; setup_s is their median
	warmup        = 1 * time.Second        // untimed closed loop that fills the windows
	rounds        = 9                      // closed+open segment pairs per pass
	closedShare   = 0.4                    // share of each round spent in the closed loop
	restarts      = 15                     // kill -9 + restart cycles timed; recovery_s is their median
	restartGap    = 50 * time.Millisecond  // idle time between restart cycles
	walTail       = 512                    // WAL records past the last checkpoint when recovery is timed
	checkpointCad = 1024                   // asdbd's default -checkpoint-every
	drainTimeout  = 15 * time.Second       // wait for the subscriber to see every line
	dueLead       = 2 * time.Millisecond   // first open-loop send is due this long after the phase starts
	pollEvery     = 200 * time.Microsecond // subscriber catch-up polling
)

type options struct {
	seconds int
	seed    uint64
	bin     string // directory holding asdbd and asdb-router
	work    string // private scratch directory for data dirs and logs
}

// lineRec is one DATA line as one connection saw it.
type lineRec struct {
	hash  uint64
	size  int32
	batch int32         // global batch index that caused the line
	at    time.Duration // arrival, since the run's base time
}

// round is one closed-loop segment followed by one open-loop segment.
// A run measures several rounds and reports medians across them, so a
// burst of interference from outside the benchmark spoils one round's
// figures instead of the run's.
type round struct {
	closedRows int
	closedWall time.Duration
	closedCPU  float64 // daemon CPU seconds in the closed-loop segment
	openCPU    float64
	ack        []float64 // ms from due time to OK
	result     []float64 // ms from due time to the batch's last DATA line on the subscriber
	read       []float64 // ms from due time to the read's reply
	steal      float64   // share of the host's CPU time stolen by the hypervisor
}

// measurement is everything one pass over a workload observed.
type measurement struct {
	setupS        []float64
	rounds        []round
	lag           []float64 // ms the generator sent each open-loop batch after its due time
	timedWall     time.Duration
	genCPU        float64 // benchmark's own CPU seconds during the rounds
	shipApply     []float64
	lagRecords    []float64
	recovery      []float64
	rssMB         float64
	acked         int // rows acknowledged before the crash cycle
	dataLines     int
	dataBytes     int64
	replayRecords float64
	routerRTTus   float64 // traced routed-replica pass: STATS via router minus direct

	// closed accumulates the primary asdbd's METRICS deltas over the
	// closed-loop segments, all over whole rounds.
	closed, all metricsDelta
	// explainTiming is the EXPLAIN <id> TIMING text per query (traced
	// pass only), read from the primary after the last round.
	explainTiming map[string]string

	attempted int
	failed    int
	problems  []string

	// Inputs and per-query DATA lines on the ingest connection, for the
	// traced replay.
	sent   []int32 // pool index of every batch sent, in order
	ingest [][]lineRec
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// runner drives one pass: set-up, warm-up, closed loop, open loop,
// checks, and the crash cycle.
type runner struct {
	w    *workload
	o    options
	pool []batch
	base time.Time
	m    *measurement

	dir      string
	primary  *daemon
	follower *daemon
	daemons  []*daemon
	ingest   *lineConn
	sub      *subscriber
	qidx     map[string]int
	due      []time.Time // open-loop due time per global batch index (zero if closed loop)
	roundOf  []int16     // round per global batch index, -1 outside the rounds
	round    int16       // round being measured, -1 outside the rounds
	rowsIn   map[string]int
	acked    int // rows acknowledged
}

func newRunner(w *workload, o options, pool []batch, tag string) (*runner, error) {
	dir, err := freshDir(o.work, tag)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, o: o, pool: pool, base: time.Now(), dir: dir, round: -1,
		m: &measurement{}, qidx: make(map[string]int), rowsIn: make(map[string]int)}
	for i, q := range w.queries {
		r.qidx[q.id] = i
	}
	r.m.ingest = make([][]lineRec, len(w.queries))
	return r, nil
}

func (r *runner) bin(name string) string { return filepath.Join(r.o.bin, name) }

// primaryArgs are the flags of the (primary) asdbd on data dir d.
func (r *runner) primaryArgs(d string) []string {
	args := append([]string{"-addr", "127.0.0.1:0"}, engineFlags...)
	if r.w.durable {
		args = append(args, "-data-dir", d, "-fsync", r.w.fsync)
	}
	if r.w.routed {
		args = append(args, "-repl-addr", "127.0.0.1:0")
	}
	return args
}

func (r *runner) primaryMarkers() []string {
	if r.w.routed {
		return []string{markShip, markClient}
	}
	return []string{markClient}
}

// setup starts the daemons on empty data dirs, registers the streams and
// queries on the ingest connection and subscribes the subscriber
// connection to every query. It returns the time from the first exec to
// the moment the first timed request could be sent.
func (r *runner) setup(i int) (time.Duration, error) {
	dir, err := freshDir(r.dir, fmt.Sprintf("setup%d", i))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	p, err := startDaemon("asdbd", r.bin("asdbd"), filepath.Join(dir, "primary.log"),
		r.primaryArgs(filepath.Join(dir, "primary")), r.primaryMarkers()...)
	if err != nil {
		return 0, err
	}
	r.primary, r.daemons = p, []*daemon{p}
	clientAddr := p.addr(markClient)
	if r.w.routed {
		f, err := startDaemon("follower", r.bin("asdbd"), filepath.Join(dir, "follower.log"),
			append(append([]string{"-addr", "127.0.0.1:0"}, engineFlags...),
				"-data-dir", filepath.Join(dir, "follower"), "-follow", p.addr(markShip)), markClient)
		if err != nil {
			return 0, err
		}
		r.follower = f
		r.daemons = append(r.daemons, f)
		rt, err := startDaemon("router", r.bin("asdb-router"), filepath.Join(dir, "router.log"),
			[]string{"-addr", "127.0.0.1:0", "-seed", "1",
				"-node", p.addr(markClient) + "," + f.addr(markClient)}, markRouter)
		if err != nil {
			return 0, err
		}
		r.daemons = append(r.daemons, rt)
		clientAddr = rt.addr(markRouter)
	}
	if r.ingest, err = dial(clientAddr); err != nil {
		return 0, err
	}
	for _, s := range r.w.streams {
		if _, err := r.ingest.do("STREAM "+s, nil); err != nil {
			return 0, err
		}
	}
	for _, q := range r.w.queries {
		if _, err := r.ingest.do("QUERY "+q.id+" "+q.sql, nil); err != nil {
			return 0, err
		}
	}
	sc, err := dial(clientAddr)
	if err != nil {
		return 0, err
	}
	// On routed-replica SUBSCRIBE reaches the follower, which knows a
	// query only once it has applied the QUERY record: retrying until it
	// does is the follower catch-up part of set-up.
	for _, q := range r.w.queries {
		for {
			_, err := sc.do("SUBSCRIBE "+q.id, nil)
			if err == nil {
				break
			}
			var se serverError
			if !errors.As(err, &se) || !strings.Contains(err.Error(), "unknown query") || time.Since(start) > 20*time.Second {
				sc.close()
				return 0, err
			}
			time.Sleep(pollEvery)
		}
	}
	took := time.Since(start)
	r.sub = newSubscriber(sc, r.qidx, r.base)
	return took, nil
}

// teardown kills this pass's daemons and closes its connections.
func (r *runner) teardown() {
	if r.sub != nil {
		r.sub.stop()
		r.sub = nil
	}
	if r.ingest != nil {
		r.ingest.close()
		r.ingest = nil
	}
	for _, d := range r.daemons {
		d.kill()
	}
	r.daemons = nil
}

// next returns the next batch to send, recording it, and its global index.
func (r *runner) next() (batch, int) {
	g := len(r.m.sent)
	pi := g % len(r.pool)
	r.m.sent = append(r.m.sent, int32(pi))
	r.due = append(r.due, time.Time{})
	r.roundOf = append(r.roundOf, r.round)
	return r.pool[pi], g
}

// recordIngest notes one DATA line seen on the ingest connection.
func (r *runner) recordIngest(line []byte, g int, at time.Time) (ok bool) {
	q, found := r.qidx[string(dataQuery(line))]
	if !found {
		return false
	}
	r.m.ingest[q] = append(r.m.ingest[q], lineRec{hash: lineHash(line), size: int32(len(line)), batch: int32(g), at: at.Sub(r.base)})
	return true
}

// sendClosed sends one batch and waits for its reply, checking that the
// DATA lines before the OK match its results= count.
func (r *runner) sendClosed() (rows int, err error) {
	b, g := r.next()
	r.m.attempted++
	lines := 0
	bad := 0
	reply, err := r.ingest.exchange(b.line, func(line []byte) {
		if !r.recordIngest(line, g, time.Now()) {
			bad++
		}
		lines++
	})
	var se serverError
	if errors.As(err, &se) {
		r.m.fail("batch %d: %v", g, err)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, ok := okResults(reply)
	if !ok || n != lines || bad > 0 {
		r.m.fail("batch %d: reply %q with %d DATA lines (%d unknown)", g, reply, lines, bad)
		return 0, nil
	}
	r.acked += b.rows
	r.rowsIn[b.stream] += b.rows
	return b.rows, nil
}

// closedLoop sends batches one at a time for d.
func (r *runner) closedLoop(d time.Duration) (rows int, wall time.Duration, err error) {
	start := time.Now()
	for time.Since(start) < d {
		n, err := r.sendClosed()
		if err != nil {
			return 0, 0, err
		}
		rows += n
	}
	return rows, time.Since(start), nil
}

// openLoop writes batches at their due times on the ingest connection,
// whether or not earlier replies have arrived, and reads (STATS and
// EXPLAIN, alternating over the queries) at theirs on the subscriber
// connection. One goroutine — this one — sends everything; the ingest
// reply reader below and the subscriber's reader receive. Replies on each
// connection arrive in request order.
func (r *runner) openLoop(d time.Duration) (ack []float64, rl *readLoad, err error) {
	interval := time.Duration(float64(time.Second) * float64(r.w.batchRows) / r.w.rate)
	readEvery := time.Duration(float64(time.Second) / r.w.readRate)
	nb, nr := int(d/interval), int(d/readEvery)
	rl = r.sub.startReads(nr)
	first := len(r.m.sent)
	type replyOut struct {
		rows int
		ack  []float64
		err  error
	}
	type sent struct {
		due time.Time
		b   batch
	}
	// Sized to the number of sends, so the sender never blocks on it.
	dues := make(chan sent, nb)
	done := make(chan replyOut, 1)
	go func() {
		out := replyOut{ack: make([]float64, 0, nb)}
		defer func() { done <- out }()
		lines := 0
		bad := 0
		for i := 0; i < nb; {
			b, err := r.ingest.readLine()
			if err != nil {
				out.err = fmt.Errorf("open loop: %w", err)
				return
			}
			now := time.Now()
			g := first + i
			if bytes.HasPrefix(b, []byte("DATA ")) {
				if !r.recordIngest(b, g, now) {
					bad++
				}
				lines++
				continue
			}
			s := <-dues
			reply := string(b)
			if n, ok := okResults(reply); !ok || n != lines || bad > 0 {
				r.m.fail("batch %d: reply %q with %d DATA lines (%d unknown)", g, reply, lines, bad)
			} else {
				out.rows += s.b.rows
				r.rowsIn[s.b.stream] += s.b.rows
				out.ack = append(out.ack, ms(openLoopLatency(s.due, now)))
			}
			lines, bad = 0, 0
			i++
		}
	}()
	// A failed send leaves replies missing; the deadline ends the reader.
	r.ingest.nc.SetDeadline(time.Now().Add(d + 60*time.Second))
	t0 := time.Now().Add(dueLead)
	var werr error
	for i, k := 0, 0; (i < nb || k < nr) && werr == nil; {
		batchDue := t0.Add(time.Duration(i) * interval)
		readDue := t0.Add(time.Duration(k) * readEvery)
		if i < nb && (k >= nr || !readDue.Before(batchDue)) {
			sleepUntil(batchDue)
			b, g := r.next()
			r.due[g] = batchDue
			r.m.attempted++
			r.m.lag = append(r.m.lag, ms(time.Since(batchDue)))
			dues <- sent{batchDue, b}
			werr = r.ingest.send(b.line)
			i++
			continue
		}
		sleepUntil(readDue)
		q := r.w.queries[(k/2)%len(r.w.queries)].id
		verb := "STATS "
		if k%2 == 1 {
			verb = "EXPLAIN "
		}
		rl.dues <- readDue
		werr = r.sub.c.send([]byte(verb + q + "\n"))
		k++
	}
	out := <-done
	r.ingest.nc.SetDeadline(time.Time{})
	if werr != nil {
		return nil, nil, fmt.Errorf("open loop send: %w", werr)
	}
	if out.err != nil {
		return nil, nil, out.err
	}
	r.acked += out.rows
	return out.ack, rl, nil
}

// sleepUntil returns at t. time.Sleep wakes through the runtime's poller,
// whose timeouts have millisecond granularity on Linux (measured: half a
// millisecond late at the median), which would add timer slop to every
// open-loop latency. A nanosleep system call is precise to the kernel's
// timer slack (tens of microseconds); the last stretch is a short spin.
func sleepUntil(t time.Time) {
	const spin = 50 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin below covers it
	}
	for time.Now().Before(t) {
	}
}

// expectedLines is how many DATA lines the ingest connection has seen;
// the subscriber must see the same lines.
func (r *runner) expectedLines() int64 {
	n := 0
	for _, q := range r.m.ingest {
		n += len(q)
	}
	return int64(n)
}

// drain waits until the subscriber has seen every DATA line the ingest
// connection saw.
func (r *runner) drain() error {
	want := r.expectedLines()
	deadline := time.Now().Add(drainTimeout)
	for r.sub.count.Load() < want {
		if time.Now().After(deadline) {
			r.m.fail("subscriber saw %d of %d DATA lines", r.sub.count.Load(), want)
			return nil
		}
		if err := r.sub.failed(); err != nil {
			return err
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// control returns a connection for METRICS/ROLE/EXPLAIN reads to the
// primary asdbd, between phases. Where the ingest connection goes
// straight to that daemon it is reused; through the router a short-lived
// direct connection is opened, since the router sends these reads to the
// follower.
func (r *runner) control(d *daemon) (*lineConn, func(), error) {
	if !r.w.routed && d == r.primary {
		return r.ingest, func() {}, nil
	}
	c, err := dial(d.addr(markClient))
	if err != nil {
		return nil, nil, err
	}
	return c, c.close, nil
}

func (r *runner) metrics(d *daemon) (metricsSnapshot, error) {
	c, done, err := r.control(d)
	if err != nil {
		return metricsSnapshot{}, err
	}
	defer done()
	reply, err := c.do("METRICS", nil)
	if err != nil {
		return metricsSnapshot{}, err
	}
	return parseMetrics(strings.TrimPrefix(reply, "OK "))
}

// checkStats asserts STATS In of every query equals the rows sent to its
// source streams.
func (r *runner) checkStats(c *lineConn, when string) error {
	for _, q := range r.w.queries {
		reply, err := c.do("STATS "+q.id, nil)
		if err != nil {
			return err
		}
		var st struct{ In uint64 }
		if err := json.Unmarshal([]byte(strings.TrimPrefix(reply, "OK ")), &st); err != nil {
			return fmt.Errorf("STATS %s: %w", q.id, err)
		}
		want := 0
		for _, s := range r.w.streamsOf(q) {
			want += r.rowsIn[s]
		}
		r.m.attempted++
		if int(st.In) != want {
			r.m.fail("%s: STATS %s In=%d, want %d rows", when, q.id, st.In, want)
		}
	}
	return nil
}

// compareLines checks that the subscriber saw byte-identical DATA lines,
// query by query and in order, and derives the result latencies of the
// open-loop batches.
func (r *runner) compareLines() {
	sub := r.sub.lines
	last := make(map[int32]time.Duration)
	for q := range r.w.queries {
		ing, got := r.m.ingest[q], sub[q]
		if len(ing) != len(got) {
			r.m.fail("query %s: ingest connection saw %d DATA lines, subscriber %d", r.w.queries[q].id, len(ing), len(got))
		}
		for k := 0; k < len(ing) && k < len(got); k++ {
			a, b := ing[k], got[k]
			r.m.dataLines++
			r.m.dataBytes += int64(b.size) + 1
			if a.hash != b.hash || a.size != b.size {
				r.m.fail("query %s line %d differs between ingest and subscriber connections", r.w.queries[q].id, k)
				continue
			}
			if r.w.routed {
				r.m.shipApply = append(r.m.shipApply, ms(b.at-a.at))
			}
			if r.due[a.batch].IsZero() {
				continue
			}
			if b.at > last[a.batch] {
				last[a.batch] = b.at
			}
		}
	}
	gs := make([]int32, 0, len(last))
	for g := range last {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	for _, g := range gs {
		rd := &r.m.rounds[r.roundOf[g]]
		rd.result = append(rd.result, ms(last[g]-r.due[g].Sub(r.base)))
	}
	if r.w.routed {
		r.m.lagRecords = followerLag(r.m.ingest, sub, len(r.m.sent))
	}
}

// followerLag derives replication lag in records from client clocks: at
// each batch's reply from the primary, how many acknowledged batches'
// results had not yet arrived from the follower.
func followerLag(ing, sub [][]lineRec, n int) []float64 {
	acked := make([]time.Duration, n)   // last primary line per batch (it precedes the OK)
	applied := make([]time.Duration, n) // last follower line per batch
	for q := range ing {
		for k := 0; k < len(ing[q]) && k < len(sub[q]); k++ {
			g := ing[q][k].batch
			acked[g] = max(acked[g], ing[q][k].at)
			applied[g] = max(applied[g], sub[q][k].at)
		}
	}
	out := make([]float64, 0, n)
	for g := 0; g < n; g++ {
		if acked[g] == 0 {
			continue
		}
		behind := 0
		for b := g; b >= 0; b-- {
			if applied[b] > acked[g] {
				behind++
			} else if applied[b] != 0 {
				break
			}
		}
		out = append(out, float64(behind))
	}
	return out
}

// crashCheck kills the (primary) asdbd of the timed phases with SIGKILL
// while the ingest connection still owns the queries, restarts it on the
// same data dir, ATTACHes the recovered queries and checks that every
// acknowledged row survived. An in-memory daemon has nothing to check.
func (r *runner) crashCheck() error {
	if !r.w.durable {
		return nil
	}
	dir := filepath.Dir(r.primary.logPath)
	r.primary.kill()
	p, err := startDaemon("asdbd", r.bin("asdbd"), filepath.Join(dir, "restart.log"),
		r.primaryArgs(filepath.Join(dir, "primary")), r.primaryMarkers()...)
	if err != nil {
		return err
	}
	r.daemons[0], r.primary = p, p
	c, err := dial(p.addr(markClient))
	if err != nil {
		return err
	}
	defer c.close()
	for _, q := range r.w.queries {
		if _, err := c.do("ATTACH "+q.id, nil); err != nil {
			return err
		}
	}
	return r.checkStats(c, "after kill -9 and recovery")
}

// measureRecovery times recovery on a data dir whose contents depend only
// on the seed: a fresh (primary) asdbd receives the registrations and then
// the pool's first batches, so many that exactly walTail WAL records lie
// past the last checkpoint. It is then killed with SIGKILL and restarted
// `restarts` times, each timed from exec to the first OK. Recovering the
// timed phases' data dir instead would make the replayed work depend on
// how fast those phases ran (how many records, where the WAL rotated). On
// an in-memory workload this times process start-up.
func (r *runner) measureRecovery() error {
	r.teardown()
	dir, err := freshDir(r.dir, "recovery")
	if err != nil {
		return err
	}
	args := r.primaryArgs(filepath.Join(dir, "primary"))
	p, err := startDaemon("asdbd", r.bin("asdbd"), filepath.Join(dir, "start.log"), args, r.primaryMarkers()...)
	if err != nil {
		return err
	}
	r.primary, r.daemons = p, []*daemon{p}
	c, err := dial(p.addr(markClient))
	if err != nil {
		return err
	}
	if r.w.durable {
		for _, s := range r.w.streams {
			if _, err := c.do("STREAM "+s, nil); err != nil {
				return err
			}
		}
		for _, q := range r.w.queries {
			if _, err := c.do("QUERY "+q.id+" "+q.sql, nil); err != nil {
				return err
			}
		}
		regs := len(r.w.streams) + len(r.w.queries)
		for i := 0; i < 2*checkpointCad+walTail-regs; i++ {
			if _, err := c.exchange(r.pool[i%len(r.pool)].line, nil); err != nil {
				return fmt.Errorf("recovery fixture: %w", err)
			}
		}
	}
	for k := 0; k < restarts; k++ {
		// Spacing the cycles out samples the host over a longer stretch,
		// so one short burst of outside load cannot shift the median.
		time.Sleep(restartGap)
		r.primary.kill()
		c.close()
		start := time.Now()
		p, err := startDaemon("asdbd", r.bin("asdbd"), filepath.Join(dir, fmt.Sprintf("restart%d.log", k)), args, r.primaryMarkers()...)
		if err != nil {
			return err
		}
		r.primary, r.daemons = p, []*daemon{p}
		if c, err = dial(p.addr(markClient)); err != nil {
			return err
		}
		if _, err := c.do("PING", nil); err != nil {
			return err
		}
		r.m.recovery = append(r.m.recovery, time.Since(start).Seconds())
	}
	defer c.close()
	reply, err := c.do("METRICS", nil)
	if err != nil {
		return err
	}
	snap, err := parseMetrics(strings.TrimPrefix(reply, "OK "))
	if err != nil {
		return err
	}
	r.m.replayRecords = float64(snap.Counters["asdb_wal_replay_records_total"])
	return nil
}

// pass runs one complete pass over the workload.
func pass(w *workload, o options, pool []batch, traced bool, tag string) (*measurement, error) {
	r, err := newRunner(w, o, pool, tag)
	if err != nil {
		return nil, err
	}
	defer func() {
		r.teardown()
		os.RemoveAll(r.dir)
	}()
	m := r.m
	// The traced pass feeds only per-layer metrics: one set-up, and no
	// crash check or recovery timing (the untraced pass does those).
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		took, err := r.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		m.setupS = append(m.setupS, took.Seconds())
		if i < n-1 {
			r.teardown()
		}
	}
	if traced {
		if err := r.enableTiming(); err != nil {
			return nil, err
		}
	}
	if _, _, err := r.closedLoop(warmup); err != nil {
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	seg := time.Duration(o.seconds) * time.Second / rounds
	closedDur := time.Duration(float64(seg) * closedShare)
	openDur := seg - closedDur
	start, gen0 := time.Now(), selfCPUSeconds()
	for i := 0; i < rounds; i++ {
		r.round = int16(i)
		if err := r.measureRound(closedDur, openDur); err != nil {
			return nil, err
		}
	}
	r.round = -1
	m.timedWall, m.genCPU = time.Since(start), selfCPUSeconds()-gen0
	r.sub.stop()
	r.compareLines()
	m.acked = r.acked
	if err := r.checkStats(r.ingest, "after the last round"); err != nil {
		return nil, err
	}
	if traced {
		return m, r.readTiming()
	}
	if m.rssMB, err = peakRSSMB(r.daemons); err != nil {
		return nil, err
	}
	if err := r.crashCheck(); err != nil {
		return nil, fmt.Errorf("crash check: %w", err)
	}
	// Collect the benchmark's own garbage now, so a collection does not
	// compete with the restarting daemon for the CPUs.
	runtime.GC()
	if err := r.measureRecovery(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return m, nil
}

// measureRound runs one closed-loop and one open-loop segment, each
// bracketed by daemon CPU readings and METRICS snapshots of the primary,
// and waits for the subscriber to catch up after each.
func (r *runner) measureRound(closedDur, openDur time.Duration) error {
	var rd round
	tot0, steal0, err := hostTicks()
	if err != nil {
		return err
	}
	snap0, err := r.metrics(r.primary)
	if err != nil {
		return err
	}
	cpu0, err := cpuSeconds(r.daemons)
	if err != nil {
		return err
	}
	if rd.closedRows, rd.closedWall, err = r.closedLoop(closedDur); err != nil {
		return err
	}
	cpu1, err := cpuSeconds(r.daemons)
	if err != nil {
		return err
	}
	rd.closedCPU = cpu1 - cpu0
	if err := r.drain(); err != nil {
		return err
	}
	snap1, err := r.metrics(r.primary)
	if err != nil {
		return err
	}
	r.m.closed.add(snap0, snap1)

	cpu2, err := cpuSeconds(r.daemons)
	if err != nil {
		return err
	}
	var reads *readLoad
	if rd.ack, reads, err = r.openLoop(openDur); err != nil {
		return err
	}
	if err := reads.wait(); err != nil {
		return err
	}
	cpu3, err := cpuSeconds(r.daemons)
	if err != nil {
		return err
	}
	rd.openCPU = cpu3 - cpu2
	if err := r.drain(); err != nil {
		return err
	}
	rd.read = reads.latencies()
	r.m.attempted += reads.sent
	for _, e := range reads.errs {
		r.m.fail("read: %s", e)
	}
	snap2, err := r.metrics(r.primary)
	if err != nil {
		return err
	}
	r.m.all.add(snap0, snap2)
	tot1, steal1, err := hostTicks()
	if err != nil {
		return err
	}
	rd.steal = ratio(steal1-steal0, tot1-tot0)
	r.m.rounds = append(r.m.rounds, rd)
	fmt.Fprintf(os.Stderr, "e2ebench: round %d: closed %.0f rows/s, %.2f us/row; open ack p50 %.3f ms, result p50 %.3f ms, read p50 %.3f ms; steal %.1f%%\n",
		len(r.m.rounds), float64(rd.closedRows)/rd.closedWall.Seconds(), rd.closedCPU/float64(rd.closedRows)*1e6,
		summarize(rd.ack).P50, summarize(rd.result).P50, summarize(rd.read).P50, 100*rd.steal)
	return nil
}

// subscriber owns the subscriber connection's reader goroutine. Lines
// and read replies are recorded by that goroutine alone; the owner reads
// them only after stop has returned.
type subscriber struct {
	c     *lineConn
	qidx  map[string]int
	base  time.Time
	lines [][]lineRec
	count atomic.Int64
	err   atomic.Pointer[error]
	done  chan struct{}
	reads atomic.Pointer[readLoad]
}

func newSubscriber(c *lineConn, qidx map[string]int, base time.Time) *subscriber {
	s := &subscriber{c: c, qidx: qidx, base: base, lines: make([][]lineRec, len(qidx)), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *subscriber) loop() {
	defer close(s.done)
	for {
		b, err := s.c.readLine()
		if err != nil {
			s.err.Store(&err)
			return
		}
		now := time.Now()
		if bytes.HasPrefix(b, []byte("DATA ")) {
			q, ok := s.qidx[string(dataQuery(b))]
			if !ok {
				q = 0 // an unknown id cannot match the ingest side; the comparison reports it
			}
			s.lines[q] = append(s.lines[q], lineRec{hash: lineHash(b), size: int32(len(b)), at: now.Sub(s.base)})
			s.count.Add(1)
			continue
		}
		if rl := s.reads.Load(); rl != nil {
			rl.reply(b, now)
		}
	}
}

// failed returns the reader's error if it stopped unexpectedly.
func (s *subscriber) failed() error {
	select {
	case <-s.done:
		if e := s.err.Load(); e != nil {
			return fmt.Errorf("subscriber connection: %w", *e)
		}
		return errors.New("subscriber connection closed")
	default:
		return nil
	}
}

// stop ends the reader and closes the connection; safe to call twice.
func (s *subscriber) stop() {
	s.c.nc.SetReadDeadline(time.Now())
	<-s.done
	s.c.close()
}

// readLoad tracks the STATS/EXPLAIN reads the open loop sends on the
// subscriber connection, beside the writes. The subscriber's reader
// records their replies.
type readLoad struct {
	dues chan time.Time
	lat  []float64 // written by the subscriber reader
	errs []string
	got  atomic.Int64
	sent int
}

// startReads registers a load of n reads with the subscriber's reader.
func (s *subscriber) startReads(n int) *readLoad {
	// Sized to the number of sends, so the sender never blocks on it.
	rl := &readLoad{dues: make(chan time.Time, n), sent: n}
	s.reads.Store(rl)
	return rl
}

func (rl *readLoad) reply(b []byte, now time.Time) {
	select {
	case due := <-rl.dues:
		if bytes.HasPrefix(b, []byte("OK")) {
			rl.lat = append(rl.lat, ms(openLoopLatency(due, now)))
		} else {
			rl.errs = append(rl.errs, string(b))
		}
	default:
		rl.errs = append(rl.errs, "unexpected reply "+string(b))
	}
	rl.got.Add(1)
}

// wait returns once every read has been answered.
func (rl *readLoad) wait() error {
	deadline := time.Now().Add(drainTimeout)
	for rl.got.Load() < int64(rl.sent) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d reads answered", rl.got.Load(), rl.sent)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// latencies may be read once wait has returned: every reply has been
// recorded, and the reader records nothing further for this load.
func (rl *readLoad) latencies() []float64 { return rl.lat }

package main

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeServer answers INSERTBATCH with an OK and any other command with
// "OK {}". It reads nothing for readStall after accepting, and holds back
// its reply to the first INSERTBATCH for stall.
func fakeServer(t *testing.T, readStall, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				time.Sleep(readStall)
				br := bufio.NewReader(c)
				first := true
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					reply := "OK {}"
					if strings.HasPrefix(line, "INSERTBATCH") {
						if first {
							time.Sleep(stall)
							first = false
						}
						reply = "OK inserted tuples=4 results=0"
					}
					if _, err := c.Write([]byte(reply + "\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopDoesNotWaitForReplies stalls the server's first reply for
// 100ms while batches are due every 10ms. An open loop keeps sending on
// schedule, and each batch queued behind the stall is timed from its due
// time, so the stall shows in its latency.
func TestOpenLoopDoesNotWaitForReplies(t *testing.T) {
	addr := fakeServer(t, 0, 100*time.Millisecond)
	w := &workload{batchRows: 4, rate: 400, readRate: 20, queries: []query{{"q", "SELECT x FROM s"}}}
	pool := []batch{{stream: "s", rows: 4, line: []byte("INSERTBATCH s 1 | 2 | 3 | 4\n")}}
	r := testRunner(t, addr, w, pool)
	ack, reads, err := r.openLoop(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := reads.wait(); err != nil {
		t.Fatal(err)
	}
	if r.acked != 120 || len(ack) != 30 || r.m.failed != 0 {
		t.Fatalf("rows=%d acks=%d failed=%d (%v)", r.acked, len(ack), r.m.failed, r.m.problems)
	}
	for i, lag := range r.m.lag {
		if lag > 20 {
			t.Errorf("batch %d sent %.1fms late: the sender waited for a reply", i, lag)
		}
	}
	// Batch k is due at 10k ms and answered just after the 100ms stall.
	for k := 0; k < 9; k++ {
		if want := 100 - 10*float64(k); ack[k] < want-1 || ack[k] > want+30 {
			t.Errorf("batch %d: latency %.1fms, want about %.0fms", k, ack[k], want)
		}
	}
	if lat := reads.latencies(); len(lat) != reads.sent || reads.sent != 6 {
		t.Errorf("reads: sent %d, answered %d", reads.sent, len(lat))
	}
}

// testRunner connects a runner's two connections to addr.
func testRunner(t *testing.T, addr string, w *workload, pool []batch) *runner {
	t.Helper()
	r, err := newRunner(w, options{work: t.TempDir()}, pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	if r.ingest, err = dial(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ingest.close)
	sc, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r.sub = newSubscriber(sc, r.qidx, r.base)
	t.Cleanup(r.sub.stop)
	return r
}

// TestGeneratorStallInflatesLatency makes the generator itself late: the
// server reads nothing for 100ms and the first batch is larger than the
// socket buffers, so the send blocks and the batches after it go out
// late. Their latencies, timed from the due time, must include that
// lateness rather than hide it.
func TestGeneratorStallInflatesLatency(t *testing.T) {
	addr := fakeServer(t, 100*time.Millisecond, 0)
	w := &workload{batchRows: 4, rate: 400, readRate: 1, queries: []query{{"q", "SELECT x FROM s"}}}
	big := "INSERTBATCH s " + strings.Repeat("1", 32<<20) + "\n"
	pool := []batch{{stream: "s", rows: 4, line: []byte(big)}}
	for len(pool) < 10 {
		pool = append(pool, batch{stream: "s", rows: 4, line: []byte("INSERTBATCH s 1\n")})
	}
	r := testRunner(t, addr, w, pool)
	ack, _, err := r.openLoop(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ack) != len(r.m.lag) || len(ack) != 10 {
		t.Fatalf("%d acks for %d sends", len(ack), len(r.m.lag))
	}
	if r.m.lag[1] < 40 {
		t.Fatalf("batch 1 went out %.1fms late; the stall did not reach the generator", r.m.lag[1])
	}
	for k := range ack {
		if ack[k] < r.m.lag[k] {
			t.Errorf("batch %d: latency %.1fms is less than its %.1fms send delay", k, ack[k], r.m.lag[k])
		}
	}
}

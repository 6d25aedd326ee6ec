package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// syncBuffer is a test output sink the shell's reader goroutine writes to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// openShell starts an embedded session, closed when the test ends.
func openShell(t *testing.T, cfg core.Config) (*Shell, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	sh, err := Open(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh, out
}

func newTestShell(t *testing.T) (*Shell, *syncBuffer) {
	return openShell(t, core.Config{Method: core.AccuracyAnalytical})
}

// exec runs a command and fails the test on error.
func exec(t *testing.T, sh *Shell, line string) {
	t.Helper()
	if err := sh.Exec(line); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
}

func TestREPLEndToEnd(t *testing.T) {
	sh, out := newTestShell(t)
	exec(t, sh, "STREAM traffic road_id delay:dist")
	exec(t, sh, "QUERY q1 SELECT road_id, delay FROM traffic WHERE PROB(delay > 50) >= 0.66")
	exec(t, sh, "INSERT traffic 19 S(56;38;97)")
	exec(t, sh, "INSERT traffic 20 N(62,120,50)")
	exec(t, sh, "STATS q1")
	got := out.String()
	for _, want := range []string{
		"OK stream traffic\n",
		"OK query q1\n",
		`"mean":63.66`, // road 19's learned mean
		`"n":50`,       // road 20's sample size
		`OK {"In":2,"Out":2,"Dropped":0,"Unsure":0,`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLExplain(t *testing.T) {
	sh, out := newTestShell(t)
	exec(t, sh, "STREAM s k x:dist")
	exec(t, sh, "QUERY agg SELECT k, AVG(x) FROM s GROUP BY k WINDOW 4 ROWS")
	exec(t, sh, "EXPLAIN agg")
	got := out.String()
	if !strings.Contains(got, "grouped by k") || !strings.Contains(got, "count window of 4 rows") {
		t.Errorf("explain output:\n%s", got)
	}
	if err := sh.Exec("EXPLAIN nosuch"); err == nil {
		t.Error("EXPLAIN of unknown query: want error")
	}
}

const loadCSV = `segment_id,time_sec,delay_sec
19,50,56
19,51,38
19,51,97
20,49,72
20,53,59
`

func TestREPLLoad(t *testing.T) {
	for _, tc := range []struct {
		name, cmd string
		wantTime  bool
	}{
		{"time", "LOAD roads test.csv KEY segment_id VALUE delay_sec TIME time_sec", true},
		{"notime", "LOAD roads test.csv KEY segment_id VALUE delay_sec", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, out := newTestShell(t)
			sh.OpenFile = func(path string) (io.ReadCloser, error) {
				if path != "test.csv" {
					return nil, errors.New("unexpected path")
				}
				return io.NopCloser(strings.NewReader(loadCSV)), nil
			}
			exec(t, sh, "STREAM roads segment_id delay:dist")
			exec(t, sh, "QUERY all SELECT segment_id, delay FROM roads")
			exec(t, sh, tc.cmd)
			got := out.String()
			for _, want := range []string{
				"OK inserted tuples=2 results=2\n",
				"OK loaded tuples=2 results=2\n",
				`"mean":63.66`, // segment 19 learned from 56, 38, 97
			} {
				if !strings.Contains(got, want) {
					t.Errorf("output missing %q:\n%s", want, got)
				}
			}
			// The TIME column travels as each tuple's t= token.
			hasTime := strings.Contains(got, `"time":51`) && strings.Contains(got, `"time":53`)
			if hasTime != tc.wantTime || (!tc.wantTime && strings.Contains(got, `"time":`)) {
				t.Errorf("result times (want present=%v):\n%s", tc.wantTime, got)
			}
		})
	}

	sh, out := newTestShell(t)
	exec(t, sh, "STREAM roads segment_id delay:dist")
	// File errors fail locally with an ERR line.
	sh.OpenFile = func(string) (io.ReadCloser, error) { return nil, errors.New("no such file") }
	if err := sh.Exec("LOAD roads gone.csv KEY a VALUE b"); err == nil {
		t.Error("missing file: want error")
	}
	if !strings.HasSuffix(out.String(), "ERR no such file\n") {
		t.Errorf("missing file output:\n%s", out.String())
	}
}

// TestREPLLoadChunks checks a LOAD larger than one chunk arrives whole, as
// several INSERTBATCH requests.
func TestREPLLoadChunks(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("k,v\n")
	for k := 0; k < loadChunk+5; k++ {
		fmt.Fprintf(&csv, "%d,%d\n%d,%d\n", k, k, k, k+2)
	}
	sh, out := newTestShell(t)
	sh.OpenFile = func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(csv.String())), nil
	}
	exec(t, sh, "STREAM s k v:dist")
	exec(t, sh, "QUERY q SELECT COUNT(v) AS n FROM s WINDOW 1000 ROWS")
	exec(t, sh, "LOAD s data.csv KEY k VALUE v")
	got := out.String()
	for _, want := range []string{
		fmt.Sprintf("OK inserted tuples=%d results=0\n", loadChunk),
		"OK inserted tuples=5 results=0\n",
		fmt.Sprintf("OK loaded tuples=%d results=0\n", loadChunk+5),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	exec(t, sh, "STATS q")
	if want := fmt.Sprintf(`OK {"In":%d,`, loadChunk+5); !strings.Contains(out.String(), want) {
		t.Errorf("STATS missing %q:\n%s", want, out.String())
	}
}

func TestREPLJoinRouting(t *testing.T) {
	sh, out := newTestShell(t)
	exec(t, sh, "STREAM a k x:dist")
	exec(t, sh, "STREAM b k y:dist")
	exec(t, sh, "QUERY j SELECT a.x, b.y FROM a JOIN b ON k = k")
	exec(t, sh, "INSERT a 5 N(10,4,20)")
	exec(t, sh, "INSERT b 5 N(3,1,20)")
	exec(t, sh, "STATS j")
	got := out.String()
	if !strings.Contains(got, `"a.x"`) {
		t.Errorf("join result missing:\n%s", got)
	}
	if !strings.Contains(got, `"Joined":1`) {
		t.Errorf("join stats missing:\n%s", got)
	}
}

func TestREPLErrorsAndHelp(t *testing.T) {
	sh, out := newTestShell(t)
	bad := []string{
		"FROB",
		"STREAM",
		"STREAM solo",
		"QUERY nospace",
		"QUERY q SELECT x FROM nosuch",
		"INSERT",
		"INSERT nosuch 1",
		"STATS nosuch",
		"CLOSE nosuch",
		"LOAD a b KEY",
	}
	errLines := func() int { return strings.Count("\n"+out.String(), "\nERR ") }
	for _, line := range bad {
		before := errLines()
		if err := sh.Exec(line); err == nil {
			t.Errorf("%q: want error", line)
		}
		if errLines() != before+1 {
			t.Errorf("%q: want exactly one ERR line, output:\n%s", line, out.String())
		}
	}
	// Comments and blanks are no-ops.
	exec(t, sh, "# a comment")
	exec(t, sh, "   ")
	exec(t, sh, "HELP")
	if !strings.Contains(out.String(), "EXPLAIN") {
		t.Error("HELP output missing commands")
	}
	// Duplicate query ids rejected; CLOSE then reuse works.
	exec(t, sh, "STREAM s x:dist")
	exec(t, sh, "QUERY q SELECT x FROM s")
	if err := sh.Exec("QUERY q SELECT x FROM s"); err == nil {
		t.Error("duplicate id: want error")
	}
	exec(t, sh, "CLOSE q")
	exec(t, sh, "QUERY q SELECT x FROM s")
}

// TestRunStopsAtFirstError checks script mode: execution stops at the first
// ERR, reported as name:line, and later lines never reach the server.
func TestRunStopsAtFirstError(t *testing.T) {
	sh, out := newTestShell(t)
	script := "# setup\nSTREAM s x:dist\nINSERT nosuch 1\nSTREAM never x\n"
	err := sh.Run(strings.NewReader(script), "setup.asdb", nil)
	if err == nil || !strings.HasPrefix(err.Error(), "setup.asdb:3: ") {
		t.Fatalf("Run error = %v, want setup.asdb:3: ...", err)
	}
	if strings.Contains(out.String(), "OK stream never") {
		t.Errorf("script ran past the failing line:\n%s", out.String())
	}
	// Interactive mode carries on past failures and stops at QUIT.
	err = sh.Run(strings.NewReader("INSERT nosuch 1\nSTREAM later x\nQUIT\nSTREAM gone x\n"), "stdin", io.Discard)
	if err != nil {
		t.Fatalf("interactive Run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "OK stream later\nOK bye\n") || strings.Contains(got, "stream gone") {
		t.Errorf("interactive output:\n%s", got)
	}
	if err := sh.Exec("PING"); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after QUIT = %v, want ErrClosed", err)
	}
}

func durableConfig(dir string, ckEvery int) core.Config {
	return core.Config{
		Method:          core.AccuracyBootstrap,
		Level:           0.9,
		Seed:            11,
		DataDir:         dir,
		FsyncPolicy:     "none",
		CheckpointEvery: ckEvery,
	}
}

func durInsert(i int) string {
	return fmt.Sprintf("INSERT temps %d N(%d.5,2.25,%d)", i, 10+i, 20+i)
}

// dataLines extracts the DATA lines from shell output.
func dataLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "DATA ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestREPLDurableResume splits one session across two embedded-server runs
// sharing a data directory and checks the second half's DATA lines are
// byte-identical to an uninterrupted reference session — for both recovery
// paths (checkpoint+suffix, WAL-only).
func TestREPLDurableResume(t *testing.T) {
	const phase1, total = 5, 10

	ref, refOut := openShell(t, durableConfig("", 0))
	exec(t, ref, "STREAM temps key val:dist")
	exec(t, ref, "QUERY q1 SELECT AVG(val) FROM temps WINDOW 3 ROWS")
	for i := 0; i < total; i++ {
		exec(t, ref, durInsert(i))
	}
	refData := dataLines(refOut.String())
	if len(refData) != total-2 {
		t.Fatalf("reference emitted %d results, want %d", len(refData), total-2)
	}

	for _, ckEvery := range []int{3, 1024} {
		t.Run(fmt.Sprintf("ckEvery=%d", ckEvery), func(t *testing.T) {
			dir := t.TempDir()
			s1, err := Open(durableConfig(dir, ckEvery), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			exec(t, s1, "STREAM temps key val:dist")
			exec(t, s1, "QUERY q1 SELECT AVG(val) FROM temps WINDOW 3 ROWS")
			for i := 0; i < phase1; i++ {
				exec(t, s1, durInsert(i))
			}
			if err := s1.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s2, out2 := openShell(t, durableConfig(dir, ckEvery))
			if got := out2.String(); got != "OK attached q1\n" {
				t.Fatalf("resumed session start = %q, want the recovered query re-attached", got)
			}
			for i := phase1; i < total; i++ {
				exec(t, s2, durInsert(i))
			}
			got := dataLines(out2.String())
			if len(got) != total-phase1 {
				t.Fatalf("resumed session emitted %d results, want %d", len(got), total-phase1)
			}
			want := refData[len(refData)-len(got):]
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("result %d diverged after resume:\nreference: %s\nresumed:   %s",
						i, want[i], got[i])
				}
			}
		})
	}
}

// goldenPath is the server's golden session transcript; the shell must
// reproduce it byte for byte in both modes.
var goldenPath = filepath.Join("..", "server", "testdata", "golden_session.txt")

// goldenConfig pins the engine exactly like the server's TestGoldenSession.
func goldenConfig(dir string) core.Config {
	return core.Config{
		Seed: 7, Method: core.AccuracyAnalytical, Level: 0.9, Workers: 1,
		DataDir: dir, FsyncPolicy: "none",
	}
}

func TestShellGoldenSession(t *testing.T) {
	out := &syncBuffer{}
	sh, err := Open(goldenConfig(t.TempDir()), out)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	checkGolden(t, sh, out)
}

func TestShellGoldenSessionConnect(t *testing.T) {
	eng, err := core.NewEngine(goldenConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewDurable(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	out := &syncBuffer{}
	sh, err := Dial(addr.String(), out)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	checkGolden(t, sh, out)
}

// checkGolden replays the golden transcript's requests (its ">> " lines)
// through the shell and compares the rebuilt transcript with the file.
func checkGolden(t *testing.T, sh *Shell, out *syncBuffer) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var transcript strings.Builder
	for _, line := range strings.Split(string(want), "\n") {
		req, ok := strings.CutPrefix(line, ">> ")
		if !ok {
			continue
		}
		fmt.Fprintf(&transcript, ">> %s\n", req)
		mark := len(out.String())
		sh.Exec(req) // the script's ERR cases are part of the transcript
		for _, l := range strings.SplitAfter(out.String()[mark:], "\n") {
			if l != "" {
				transcript.WriteString(normalizeMetrics(t, req, l))
			}
		}
	}
	if got := transcript.String(); got != string(want) {
		t.Fatalf("shell transcript diverged from %s:\n%s", goldenPath, firstDiff(string(want), got))
	}
}

// normalizeMetrics masks the process-global METRICS payload down to its
// key set, as the server's TestGoldenSession does.
func normalizeMetrics(t *testing.T, req, line string) string {
	t.Helper()
	if req != "METRICS" || !strings.HasPrefix(line, "OK ") {
		return line
	}
	var snap struct {
		Counters   map[string]json.RawMessage `json:"counters"`
		Gauges     map[string]json.RawMessage `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(line[len("OK "):]), &snap); err != nil {
		t.Fatalf("global METRICS payload is not valid JSON: %v\n%s", err, line)
	}
	names := func(m map[string]json.RawMessage) string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("OK <metrics counters=[%s] gauges=[%s] histograms=[%s]>\n",
		names(snap.Counters), names(snap.Gauges), names(snap.Histograms))
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, w, g)
		}
	}
	return "identical lines, different bytes"
}

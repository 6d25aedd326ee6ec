// Package repl is the asdb shell: a line client of one server.Server
// session, factored out of cmd/asdb so it can be tested. Every command
// except HELP and LOAD goes to the server's dispatcher unchanged, and every
// line the server sends back — OK, ERR and DATA — is printed unchanged.
//
// Open runs the session against an embedded server (server.NewDurable over
// one end of a net.Pipe, so no TCP port is opened); Dial connects to a
// running asdbd. Both modes run the same server code: the same dispatcher,
// journal format, recovery and render path.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/randvar"
	"repro/internal/server"
)

// loadChunk is how many tuples LOAD sends per INSERTBATCH: large enough to
// amortize the round trip and the WAL fsync, small enough to keep result
// output flowing. Each chunk is one journaled batch, so a crash during LOAD
// keeps a prefix of whole acknowledged chunks.
const loadChunk = 128

// maxLine matches the server's cap on one protocol line.
const maxLine = 16 << 20

// ErrClosed reports that the session's connection is gone (QUIT, a
// stopped server, or a broken link).
var ErrClosed = errors.New("session closed")

// HelpText describes the commands.
const HelpText = `commands (everything but HELP and LOAD runs on the server):
  STREAM  <name> <col>[:dist] ...   register a stream
  QUERY   <id> <sql>                compile a continuous query
  INSERT  <stream> [t=<ts>] <field> ...
                                    push a tuple (fields: 12.5 | N(mu,s2,n) |
                                    S(v;v;...) | H(e,e|c,c)); t= sets its time
                                    in unix seconds for WINDOW n SECONDS
  INSERTBATCH <stream> [t=<ts>] <field> ... | [t=<ts>] <field> ...
                                    push several tuples in one engine batch
                                    ("|" separates tuples; one WAL record)
  LOAD    <stream> <file> KEY <col> VALUE <col> [TIME <col>]
                                    learn per-key distributions from a CSV and
                                    insert them, 128 tuples per INSERTBATCH
  EXPLAIN <id> [TIMING]             compiled plan (TIMING adds node-local
                                    per-stage counters)
  STATS   <id>                      query counters
  METRICS [<id>]                    process metrics, or one query's accuracy
                                    telemetry (JSON)
  CLOSE   <id>                      drop a query
  ATTACH  <id> | SUBSCRIBE <id>     take or share delivery of a query's DATA
  SHED [<level>] | ROLE | PING      load shedding, replication role, liveness
  QUIT                              end the session like a disconnecting
                                    client: the server drops its queries (end
                                    the input instead to keep them)
  HELP                              this text
`

// Shell is one session. Exec and Run are not safe for concurrent use.
type Shell struct {
	// OpenFile opens LOAD's CSV; defaults to os.Open and is injectable for
	// tests.
	OpenFile func(string) (io.ReadCloser, error)

	conn net.Conn
	out  *syncWriter
	// replies carries the OK/ERR lines, one per request. Its one slot holds
	// a reply no request waits for (the server's connection-limit ERR), so
	// the reader does not block on it.
	replies chan string
	done    chan struct{}  // closed when the reader goroutine exits
	srv     *server.Server // embedded session only
}

// Open starts an embedded server over cfg — recovering cfg.DataDir when it
// is set — and returns a session on it. Queries recovered from the data
// directory are ATTACHed, so their results print in this session again.
func Open(cfg core.Config, out io.Writer) (*Shell, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewDurable(eng, nil)
	if err != nil {
		return nil, err
	}
	// The peer is in-process: an idle prompt or a paused pager must not
	// disconnect the session, which would drop (and journal a CLOSE for)
	// every query it owns.
	srv.SetOptions(server.Options{IdleTimeout: -1, WriteTimeout: -1})
	client, end := net.Pipe()
	go srv.ServeConn(end)
	s := newShell(client, out)
	s.srv = srv
	for _, id := range srv.QueryIDs() {
		if err := s.Exec("ATTACH " + id); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Dial returns a session on the asdbd listening at addr.
func Dial(addr string, out io.Writer) (*Shell, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return newShell(conn, out), nil
}

func newShell(conn net.Conn, out io.Writer) *Shell {
	s := &Shell{
		OpenFile: func(path string) (io.ReadCloser, error) { return os.Open(path) },
		conn:     conn,
		out:      &syncWriter{w: out},
		replies:  make(chan string, 1),
		done:     make(chan struct{}),
	}
	go s.read()
	return s
}

// read prints every line the server sends and hands each OK/ERR reply to
// the waiting command. The server writes a command's DATA lines before its
// reply, so they are printed by the time the command returns; DATA for
// this session's queries triggered by other clients prints as it arrives.
func (s *Shell) read() {
	defer close(s.done)
	defer close(s.replies)
	sc := bufio.NewScanner(s.conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for sc.Scan() {
		line := sc.Text()
		s.out.print(line + "\n")
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			s.replies <- line
		}
	}
}

// Close ends the session. An embedded server is stopped with
// server.Detach, which journals nothing on the way out: the session's
// queries stay registered and are ATTACHed again by the next Open of the
// same data directory.
func (s *Shell) Close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Detach()
	}
	s.conn.Close()
	<-s.done
	return err
}

// Exec runs one command line; blank lines and #-comments are skipped. A
// failed command returns an error after its ERR line has been printed.
func (s *Shell) Exec(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	verb, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "HELP":
		s.out.print(HelpText)
		return nil
	case "LOAD":
		err := s.load(strings.TrimSpace(rest))
		var se server.ServerError
		if err != nil && !errors.Is(err, ErrClosed) && !errors.As(err, &se) {
			s.out.print("ERR " + err.Error() + "\n")
		}
		return err
	case "QUIT":
		_, err := s.send(line)
		if err == nil {
			<-s.done // the server has dropped the session's queries
		}
		return err
	}
	_, err := s.send(line)
	return err
}

// send writes one request line and waits for its reply.
func (s *Shell) send(line string) (string, error) {
	if _, err := io.WriteString(s.conn, line+"\n"); err != nil {
		return "", ErrClosed
	}
	reply, ok := <-s.replies
	if !ok {
		return "", ErrClosed
	}
	if msg, failed := strings.CutPrefix(reply, "ERR "); failed {
		return reply, server.ServerError(msg)
	}
	return reply, nil
}

// load reads a CSV through ingest.Read and sends the learned tuples as
// INSERTBATCH chunks of loadChunk rows.
func (s *Shell) load(rest string) error {
	fields := strings.Fields(rest)
	if (len(fields) != 6 && len(fields) != 8) || !strings.EqualFold(fields[2], "KEY") ||
		!strings.EqualFold(fields[4], "VALUE") || (len(fields) == 8 && !strings.EqualFold(fields[6], "TIME")) {
		return errors.New("usage: LOAD <stream> <file> KEY <col> VALUE <col> [TIME <col>]")
	}
	spec := ingest.Spec{KeyColumn: fields[3], ValueColumn: fields[5]}
	if len(fields) == 8 {
		spec.TimeColumn = fields[7]
	}
	f, err := s.OpenFile(fields[1])
	if err != nil {
		return err
	}
	tuples, err := ingest.Read(f, spec)
	f.Close()
	if err != nil {
		return err
	}
	results := 0
	var req strings.Builder
	for start := 0; start < len(tuples); start += loadChunk {
		req.Reset()
		req.WriteString("INSERTBATCH " + fields[0])
		for i, lt := range tuples[start:min(start+loadChunk, len(tuples))] {
			if i > 0 {
				req.WriteString(" |")
			}
			if spec.TimeColumn != "" {
				req.WriteString(" t=" + strconv.FormatInt(lt.Time, 10))
			}
			req.WriteString(" " + server.FormatFieldSpec(randvar.Det(lt.Key)))
			req.WriteString(" " + server.FormatFieldSpec(lt.Field))
		}
		reply, err := s.send(req.String())
		if err != nil {
			return err
		}
		// Every INSERTBATCH OK ends in "results=N"; the sum only feeds
		// the summary line.
		_, n, _ := strings.Cut(reply, "results=")
		k, _ := strconv.Atoi(n)
		results += k
	}
	s.out.print(fmt.Sprintf("OK loaded tuples=%d results=%d\n", len(tuples), results))
	return nil
}

// Run executes commands from in, one per line, until in ends or the
// session closes. With a non-nil prompt writer it is interactive: it
// prompts before each line and carries on past failed commands. Without
// one it stops at the first failure, reported as name:line.
func (s *Shell) Run(in io.Reader, name string, prompt io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for lineNo := 1; ; lineNo++ {
		select {
		case <-s.done:
			return nil // QUIT
		default:
		}
		if prompt != nil {
			fmt.Fprint(prompt, "asdb> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		err := s.Exec(sc.Text())
		switch {
		case errors.Is(err, ErrClosed):
			return err
		case err != nil && prompt == nil:
			return fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
	}
}

// RunFile runs a script file non-interactively (see Run).
func (s *Shell) RunFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Run(f, path, nil)
}

// syncWriter serializes the reader goroutine's server lines with the
// command side's local output (HELP, LOAD's summary, local errors).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (w *syncWriter) print(s string) {
	w.mu.Lock()
	io.WriteString(w.w, s)
	w.mu.Unlock()
}

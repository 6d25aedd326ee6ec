package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"strconv"
	"strings"
	"time"
)

// lineConn is one protocol connection read with a plain line reader, so
// every DATA line is seen and counted (the project's Go client buffers
// DATA lines in a bounded channel and drops them once it is full).
type lineConn struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	// pending holds a line assembled across bufio.ErrBufferFull returns.
	pending []byte
}

func dial(addr string) (*lineConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineConn{nc: nc, r: bufio.NewReaderSize(nc, 1<<20), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *lineConn) close() { c.nc.Close() }

// readLine returns the next line without its newline. The slice is valid
// until the next call.
func (c *lineConn) readLine() ([]byte, error) {
	c.pending = c.pending[:0]
	for {
		b, err := c.r.ReadSlice('\n')
		if err == nil {
			if len(c.pending) > 0 {
				c.pending = append(c.pending, b[:len(b)-1]...)
				return c.pending, nil
			}
			return b[:len(b)-1], nil
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			c.pending = append(c.pending, b...)
			continue
		}
		return nil, err
	}
}

// send writes bytes already terminated by a newline and flushes. A
// failed Write is reported by Flush: bufio.Writer errors are sticky.
func (c *lineConn) send(b []byte) error {
	c.w.Write(b)
	return c.w.Flush()
}

// do sends a request and returns its reply line, passing any DATA lines
// that arrive first to onData. An ERR reply is returned as an error.
func (c *lineConn) do(line string, onData func([]byte)) (string, error) {
	return c.exchange([]byte(line+"\n"), onData)
}

// exchange is do for a request already terminated by a newline.
func (c *lineConn) exchange(req []byte, onData func([]byte)) (string, error) {
	c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	defer c.nc.SetDeadline(time.Time{})
	verb := firstWord(string(req[:min(len(req), 16)]))
	if err := c.send(req); err != nil {
		return "", fmt.Errorf("%s: %w", verb, err)
	}
	for {
		b, err := c.readLine()
		if err != nil {
			return "", fmt.Errorf("%s: %w", verb, err)
		}
		if bytes.HasPrefix(b, []byte("DATA ")) {
			if onData != nil {
				onData(b)
			}
			continue
		}
		reply := string(b)
		if msg, ok := strings.CutPrefix(reply, "ERR "); ok {
			return "", serverError(verb + ": " + msg)
		}
		return reply, nil
	}
}

// serverError is an ERR reply: the request failed, the connection is fine.
type serverError string

func (e serverError) Error() string { return string(e) }

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// okResults extracts N from an "OK inserted tuples=T results=N" reply.
func okResults(reply string) (int, bool) {
	i := strings.LastIndex(reply, " results=")
	if !strings.HasPrefix(reply, "OK ") || i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(reply[i+len(" results="):])
	return n, err == nil
}

// dataQuery returns the query id of a "DATA <id> <json>" line.
func dataQuery(line []byte) []byte {
	rest := line[len("DATA "):]
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		return rest[:i]
	}
	return rest
}

// lineSeed keys lineHash for the life of the process; hashes are only
// compared within one run.
var lineSeed = maphash.MakeSeed()

// lineHash hashes a DATA line; the benchmark compares lines by hash and
// length instead of keeping every line's bytes.
func lineHash(b []byte) uint64 { return maphash.Bytes(lineSeed, b) }

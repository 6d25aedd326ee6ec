package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one server process (asdbd or asdb-router) started by the
// benchmark. Its stderr goes to a log file, which is also how the
// benchmark learns the addresses it bound (every listener binds port 0).
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	addrs   map[string]string // log-line marker → bound address
	waited  bool
}

// procs tracks every process the benchmark starts so that every exit
// path, including a fatal error, kills and reaps them.
var procs struct {
	mu   sync.Mutex
	live []*daemon
}

// Log-line prefixes each binary prints once a listener is bound,
// followed by the bound address.
const (
	markClient = "listening on "
	markShip   = "shipping wal to followers on "
	markRouter = "routing 1 node(s) on "
)

// startDaemon execs bin with args, logging to logPath, and waits until
// every marker in wait has appeared in the log (or the process exits).
func startDaemon(name, bin, logPath string, args []string, wait ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark itself be killed, the kernel kills its daemons.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, addrs: make(map[string]string)}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	logf.Close() // the child holds its own descriptor
	procs.mu.Lock()
	procs.live = append(procs.live, d)
	procs.mu.Unlock()
	if err := d.awaitLog(10*time.Second, wait...); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// awaitLog polls the log until each marker has been printed, recording
// the address that follows it.
func (d *daemon) awaitLog(timeout time.Duration, markers ...string) error {
	deadline := time.Now().Add(timeout)
	for {
		data, _ := os.ReadFile(d.logPath)
		text := string(data)
		missing := false
		for _, m := range markers {
			i := strings.Index(text, m)
			if i < 0 {
				missing = true
				break
			}
			rest := text[i+len(m):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				rest = rest[:j]
			}
			if _, _, err := net.SplitHostPort(rest); err != nil {
				missing = true // line not complete yet
				break
			}
			d.addrs[m] = rest
		}
		if !missing {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not start within %v; log:\n%s", d.name, timeout, tail(text, 2000))
		}
		if d.exited() {
			return fmt.Errorf("%s exited during start-up; log:\n%s", d.name, tail(text, 2000))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// exited reports whether the process has ended, without blocking.
func (d *daemon) exited() bool {
	st, err := readProcStat(d.cmd.Process.Pid)
	return err != nil || st.state == 'Z'
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

func (d *daemon) addr(marker string) string { return d.addrs[marker] }

// kill sends SIGKILL and reaps the process. Safe to call twice.
func (d *daemon) kill() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	d.killLocked()
	for i, p := range procs.live {
		if p == d {
			procs.live = append(procs.live[:i], procs.live[i+1:]...)
			break
		}
	}
}

func (d *daemon) killLocked() {
	if d.waited {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited processes return an error; Wait reaps either way
	_ = d.cmd.Wait()
	d.waited = true
}

// killAll stops every process the benchmark started.
func killAll() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	for _, d := range procs.live {
		d.killLocked()
	}
	procs.live = nil
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	state      byte
	cpuSeconds float64 // utime + stime
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProcStat(pid int) (procStat, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name is parenthesized and may contain spaces; fields
	// after the closing parenthesis are space-separated.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procStat{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procStat{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return procStat{}, errors.New("bad cpu times in /proc stat")
	}
	return procStat{state: f[0][0], cpuSeconds: (ut + st) / clockTicks}, nil
}

// cpuSeconds sums utime+stime over the daemons.
func cpuSeconds(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		st, err := readProcStat(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += st.cpuSeconds
	}
	return total, nil
}

// selfCPUSeconds is the benchmark process's own utime+stime.
func selfCPUSeconds() float64 {
	st, err := readProcStat(os.Getpid())
	if err != nil {
		return 0
	}
	return st.cpuSeconds
}

// peakRSSMB sums VmHWM (peak resident set) over the daemons, in MiB.
func peakRSSMB(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		found := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					total += kb / 1024
					found = true
				}
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("%s: no VmHWM", d.name)
		}
	}
	return total, nil
}

// freshDir returns an empty directory under base.
func freshDir(base, name string) (string, error) {
	dir := filepath.Join(base, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat: the
// total over all states, and the time the hypervisor ran something else
// while this machine's CPUs wanted to run (steal).
func hostTicks() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user time
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}

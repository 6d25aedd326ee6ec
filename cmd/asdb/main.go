// Command asdb is the interactive shell of the accuracy-aware uncertain
// stream database. It speaks the network protocol of repro/internal/server:
// each command line goes to a server session and the server's OK / ERR /
// DATA lines are printed as they arrive. By default the server is embedded
// in the process (no TCP port is opened); with -connect the shell is a
// client of a running asdbd instead.
//
// Usage:
//
//	asdb [-level 0.9] [-method analytical] [-seed 1] [-workers N]
//	     [-data-dir DIR] [-fsync always|interval|none] [-checkpoint-every N]
//	     [-debug-addr ADDR] [-f script.asdb] [-batch]
//	asdb -connect HOST:PORT [-f script.asdb] [-batch]
//
// With -f, commands are read from the file before the interactive prompt
// starts, stopping at the first ERR (reported as file:line, exit status 1);
// -batch exits after the script.
//
// With -data-dir the embedded server is durable exactly like asdbd's: a
// later asdb (or asdbd) run with the same -data-dir and engine flags
// resumes where this one stopped — windows, learned distributions, and RNG
// states included. Ending the input keeps the session's queries (they are
// re-ATTACHed on the next start); QUIT drops them like a disconnecting
// client. The engine and durability flags configure the embedded server,
// so they cannot be combined with -connect.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repl"
)

func main() {
	level := flag.Float64("level", 0.9, "confidence level")
	method := flag.String("method", "analytical", "accuracy method: none | analytical | bootstrap")
	seed := flag.Uint64("seed", 1, "engine RNG seed")
	script := flag.String("f", "", "script file to execute before the prompt")
	batch := flag.Bool("batch", false, "exit after the script (no interactive prompt)")
	workers := flag.Int("workers", 0, "accuracy-kernel parallelism (0 = GOMAXPROCS); results are identical at any setting")
	dataDir := flag.String("data-dir", "", "durability directory (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "interval", "WAL fsync policy: always | interval | none")
	ckEvery := flag.Int("checkpoint-every", 1024, "checkpoint after this many journaled commands")
	debugAddr := flag.String("debug-addr", "", "HTTP observability listener (/debug/metrics, /debug/vars, /debug/pprof); empty disables")
	connect := flag.String("connect", "", "connect to the asdbd at this address instead of embedding a server")
	flag.Parse()

	var (
		sh  *repl.Shell
		err error
	)
	if *connect != "" {
		var local []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "connect" && f.Name != "f" && f.Name != "batch" {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			fmt.Fprintf(os.Stderr, "asdb: -connect cannot be combined with %s (they configure the embedded server)\n",
				strings.Join(local, " "))
			os.Exit(2)
		}
		sh, err = repl.Dial(*connect, os.Stdout)
	} else {
		if *debugAddr != "" {
			metrics.Default.PublishExpvar("asdb")
			http.Handle("/debug/metrics", metrics.Default.Handler())
			go func() {
				if err := http.ListenAndServe(*debugAddr, nil); err != nil {
					fmt.Fprintf(os.Stderr, "asdb: debug listener: %v\n", err)
				}
			}()
		}
		var m core.AccuracyMethod
		switch *method {
		case "none":
			m = core.AccuracyNone
		case "analytical":
			m = core.AccuracyAnalytical
		case "bootstrap":
			m = core.AccuracyBootstrap
		default:
			fmt.Fprintf(os.Stderr, "asdb: unknown method %q\n", *method)
			os.Exit(2)
		}
		sh, err = repl.Open(core.Config{
			Level: *level, Method: m, Seed: *seed, Workers: *workers,
			DataDir: *dataDir, FsyncPolicy: *fsyncPolicy, CheckpointEvery: *ckEvery,
		}, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdb: %v\n", err)
		os.Exit(1)
	}
	status := 0
	if *script != "" {
		if err := sh.RunFile(*script); err != nil {
			fmt.Fprintf(os.Stderr, "asdb: %v\n", err)
			status = 1
		}
	}
	if status == 0 && !*batch {
		fmt.Fprintln(os.Stderr, "asdb — accuracy-aware uncertain stream database (HELP for commands, ctrl-D to exit)")
		if err := sh.Run(os.Stdin, "stdin", os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "asdb: %v\n", err)
			status = 1
		}
	}
	if err := sh.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "asdb: close: %v\n", err)
		status = 1
	}
	os.Exit(status)
}

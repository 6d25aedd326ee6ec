package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestConnectRejectsServerFlags re-runs this test binary as the asdb
// command: -connect combined with a flag that configures the embedded
// server is a usage error (exit status 2), caught before dialing.
func TestConnectRejectsServerFlags(t *testing.T) {
	if args := os.Getenv("ASDB_TEST_ARGS"); args != "" {
		os.Args = append([]string{"asdb"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{
		"-connect 127.0.0.1:1 -seed 3",
		"-connect 127.0.0.1:1 -method bootstrap",
		"-connect 127.0.0.1:1 -data-dir x",
		"-checkpoint-every 8 -connect 127.0.0.1:1 -batch",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConnectRejectsServerFlags$")
		cmd.Env = append(os.Environ(), "ASDB_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("asdb %s: err %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "-connect cannot be combined with") {
			t.Errorf("asdb %s: output %q", args, out)
		}
	}
}

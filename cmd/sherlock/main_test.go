package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command's main instead of the tests when
// SHERLOCK_RUN_MAIN is set, so a test can drive the CLI, exit status
// included, by re-executing its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("SHERLOCK_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs `sherlock args...` in a child process and returns its
// stderr and exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SHERLOCK_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

// TestEvalTakesNoArguments: `sherlock eval` has no flags, so anything
// after it is a usage error rather than a silently ignored setting.
func TestEvalTakesNoArguments(t *testing.T) {
	for _, args := range [][]string{{"-rounds", "5"}, {"-h"}, {"table5"}} {
		stderr, code := runCLI(t, append([]string{"eval"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "sherlock eval") {
			t.Errorf("eval %v: exit %d, stderr %q; want exit 2 with usage", args, code, stderr)
		}
	}
}

// TestInferAllIsRejected: the whole evaluation moved to `sherlock eval`;
// infer's former -all and -list flags are unknown flags now.
func TestInferAllIsRejected(t *testing.T) {
	for _, flag := range []string{"-all", "-list"} {
		stderr, code := runCLI(t, "infer", flag)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("infer %s: exit %d, stderr %q; want exit 2 naming the flag", flag, code, stderr)
		}
	}
}

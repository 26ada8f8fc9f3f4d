package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestExitCode pins the exit-status contract: 0 for success and -h, 2 for
// usage errors, 1 for runtime errors — and a usage error is printed exactly
// once, fixing the historical double print of flag parse failures.
func TestExitCode(t *testing.T) {
	var buf bytes.Buffer
	if got := exitCode(nil, &buf); got != 0 {
		t.Fatalf("nil error: exit %d", got)
	}
	if got := exitCode(flag.ErrHelp, &buf); got != 0 {
		t.Fatalf("ErrHelp: exit %d", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("success paths printed %q", buf.String())
	}

	buf.Reset()
	if got := exitCode(usagef("bad invocation"), &buf); got != 2 {
		t.Fatalf("usage error: exit %d", got)
	}
	if n := strings.Count(buf.String(), "bad invocation"); n != 1 {
		t.Fatalf("usage error printed %d times: %q", n, buf.String())
	}

	buf.Reset()
	if got := exitCode(&usageError{err: errors.New("already shown"), printed: true}, &buf); got != 2 {
		t.Fatalf("pre-printed usage error: exit %d", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("pre-printed usage error printed again: %q", buf.String())
	}

	buf.Reset()
	if got := exitCode(errors.New("runtime failure"), &buf); got != 1 {
		t.Fatalf("runtime error: exit %d", got)
	}
	if !strings.Contains(buf.String(), "runtime failure") {
		t.Fatalf("runtime error not reported: %q", buf.String())
	}
}

// TestUsageErrorsExitTwo proves run() classifies bad invocations as usage
// errors (exit 2) and the help flag as success.
func TestUsageErrorsExitTwo(t *testing.T) {
	usage := [][]string{
		{},                                // missing eps
		{"-eps", "-1"},                    // bad eps
		{"-eps", "1", "-mode", "bogus"},   // bad mode
		{"-eps", "1", "-badflag", "true"}, // unknown flag
	}
	for _, args := range usage {
		var stdout, stderr bytes.Buffer
		err := run(args, strings.NewReader(""), &stdout, &stderr)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("args %v: err = %v, want usage error", args, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, strings.NewReader(""), &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	// A runtime failure (unreadable input) must NOT be classified as usage.
	err := run([]string{"-eps", "1", "-in", "/no/such/file"}, strings.NewReader(""), &stdout, &stderr)
	var ue *usageError
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("missing input: err = %v, want non-usage error", err)
	}
}

// TestNetFlagValidation walks the -net/-rank/-peers validation matrix; every
// rejection must be a usage error whose message names the offending flag.
func TestNetFlagValidation(t *testing.T) {
	peers2 := "a:1,b:2"
	cases := []struct {
		name string
		args []string
		want string // substring of the error message
	}{
		{"rank without net", []string{"-eps", "1", "-rank", "0"}, "-rank"},
		{"peers without net", []string{"-eps", "1", "-peers", peers2}, "-peers"},
		{"unknown net", []string{"-eps", "1", "-mode", "dist", "-net", "carrier-pigeon"}, "-net"},
		{"net without dist", []string{"-eps", "1", "-net", "tcp", "-rank", "0", "-peers", peers2}, "-mode"},
		{"net with dist-serial", []string{"-eps", "1", "-mode", "dist", "-dist-serial", "-net", "tcp", "-rank", "0", "-peers", peers2}, "-dist-serial"},
		{"net with chaos", []string{"-eps", "1", "-mode", "dist", "-chaos-seed", "3", "-net", "tcp", "-rank", "0", "-peers", peers2}, "-chaos-seed"},
		{"launch with rank", []string{"-eps", "1", "-mode", "dist", "-net", "launch", "-rank", "0"}, "-rank"},
		{"launch bad ranks", []string{"-eps", "1", "-mode", "dist", "-net", "launch", "-ranks", "3"}, "power of two"},
		{"tcp without peers", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-rank", "0"}, "-peers"},
		{"tcp without rank", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-peers", peers2}, "-rank"},
		{"rank out of range", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-rank", "2", "-peers", peers2}, "-rank 2"},
		{"empty peer entry", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-rank", "0", "-peers", "a:1,,c:3"}, "empty"},
		{"non-pow2 peers", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-rank", "0", "-peers", "a:1,b:2,c:3"}, "power of two"},
		{"ranks disagrees", []string{"-eps", "1", "-mode", "dist", "-net", "tcp", "-rank", "0", "-ranks", "4", "-peers", peers2}, "-ranks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, strings.NewReader(""), &stdout, &stderr)
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want usage error", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("message %q does not mention %q", err.Error(), c.want)
			}
		})
	}
}

// TestNetRankProcesses runs a real 2-rank world through run() itself — two
// invocations with -net unix, sharing nothing but socket paths — and checks
// rank 0's labels match the in-process run bit for bit.
func TestNetRankProcesses(t *testing.T) {
	var want bytes.Buffer
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "dist", "-ranks", "2"},
		strings.NewReader(squareCSV), &want, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "nr")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	peers := fmt.Sprintf("%s/0.sock,%s/1.sock", dir, dir)
	in := writeTemp(t, "pts.csv", squareCSV)

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "dist",
				"-net", "unix", "-rank", fmt.Sprint(r), "-peers", peers, "-in", in, "-stats"},
				nil, &outs[r], &bytes.Buffer{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got := outs[0].String(); got != want.String() {
		t.Fatalf("networked labels differ:\n%q\nwant:\n%q", got, want.String())
	}
	if outs[1].Len() != 0 {
		t.Fatalf("rank 1 wrote labels: %q", outs[1].String())
	}
}

// launchHelperEnv re-enters the test binary as one launched rank process.
const launchHelperEnv = "MUDBSCAN_LAUNCH_HELPER"

// TestHelperLaunchChild is not a test: under launchHelperEnv it behaves as
// the mudbscan binary, running the arguments after "--" through run().
func TestHelperLaunchChild(t *testing.T) {
	if os.Getenv(launchHelperEnv) != "1" {
		t.Skip("helper process for the launch test")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Exit(exitCode(run(args, os.Stdin, os.Stdout, os.Stderr), os.Stderr))
}

// TestLaunchMode drives -net launch end to end with the fork seam pointed
// back at the test binary: the parent forks 4 real rank processes over
// loopback TCP and must collect the same labels as the in-process run.
func TestLaunchMode(t *testing.T) {
	orig := childCommand
	childCommand = func(args []string) (*exec.Cmd, error) {
		full := append([]string{"-test.run=TestHelperLaunchChild$", "--"}, args...)
		cmd := exec.Command(os.Args[0], full...)
		cmd.Env = append(os.Environ(), launchHelperEnv+"=1")
		return cmd, nil
	}
	defer func() { childCommand = orig }()

	var want bytes.Buffer
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "dist", "-ranks", "4"},
		strings.NewReader(squareCSV), &want, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "labels.txt")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "dist", "-net", "launch",
		"-ranks", "4", "-out", out, "-stats"},
		strings.NewReader(squareCSV), &stdout, &stderr)
	if err != nil {
		t.Fatalf("launch: %v (stderr: %s)", err, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want.String() {
		t.Fatalf("launched labels differ:\n%q\nwant:\n%q", b, want.String())
	}
	for _, field := range []string{"clusters=", " net=tcp", " read=", " mergeBytes=", "phases: "} {
		if !strings.Contains(stderr.String(), field) {
			t.Fatalf("rank 0 stats did not flow through (no %s): %q", field, stderr.String())
		}
	}
}

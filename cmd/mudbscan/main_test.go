package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mudbscan"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const squareCSV = `1,1
1.1,1
1,1.1
1.1,1.1
9,9
9.1,9
9,9.1
9.1,9.1
5,5
`

func TestClusterFromCSVFile(t *testing.T) {
	in := writeTemp(t, "pts.csv", squareCSV)
	out := filepath.Join(t.TempDir(), "labels.txt")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-eps", "0.5", "-minpts", "3", "-in", in, "-out", out, "-stats"},
		nil, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	labels := strings.Fields(string(b))
	if len(labels) != 9 {
		t.Fatalf("labels=%v", labels)
	}
	if labels[8] != "-1" {
		t.Fatalf("point 8 should be noise, got %s", labels[8])
	}
	if labels[0] == labels[4] {
		t.Fatal("separated squares should differ")
	}
	// The default engine (seq) reports step 1's deferred points and the step
	// split, as every engine but stream does.
	if !strings.Contains(stderr.String(), "clusters=2") || !strings.Contains(stderr.String(), " deferred=") ||
		!strings.Contains(stderr.String(), "steps: tree=") {
		t.Fatalf("stats output: %q", stderr.String())
	}
}

func TestClusterFromStdinToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-eps", "0.5", "-minpts", "3"},
		strings.NewReader(squareCSV), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(stdout.String())) != 9 {
		t.Fatalf("stdout: %q", stdout.String())
	}
}

func TestModes(t *testing.T) {
	for _, mode := range []string{"cell", "auto", "shared", "dist", "stream"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", mode, "-ranks", "2", "-stats"},
			strings.NewReader(squareCSV), &stdout, &stderr)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if len(strings.Fields(stdout.String())) != 9 {
			t.Fatalf("mode %s stdout: %q", mode, stdout.String())
		}
	}
}

// TestCellModeMatchesSeq: the grid engine must emit exactly the labels the
// default engine does, and -mode auto -stats must name the engine it picked
// (the square CSV is 2-D, so the selector lands on cell).
func TestCellModeMatchesSeq(t *testing.T) {
	var seqOut, cellOut, autoOut, stderr bytes.Buffer
	if err := run([]string{"-eps", "0.5", "-minpts", "3"},
		strings.NewReader(squareCSV), &seqOut, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "cell", "-workers", "2"},
		strings.NewReader(squareCSV), &cellOut, &stderr); err != nil {
		t.Fatal(err)
	}
	if seqOut.String() != cellOut.String() {
		t.Fatalf("cell labels differ from seq:\n%q\n%q", seqOut.String(), cellOut.String())
	}
	stderr.Reset()
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "auto", "-stats"},
		strings.NewReader(squareCSV), &autoOut, &stderr); err != nil {
		t.Fatal(err)
	}
	if seqOut.String() != autoOut.String() {
		t.Fatal("auto labels differ from seq")
	}
	if !strings.Contains(stderr.String(), "engine=cell") {
		t.Fatalf("auto -stats must report the picked engine: %q", stderr.String())
	}
}

// TestCellRangeModes: points 1e30 apart are all noise at eps 1, but lie past
// what the grid can index. -mode auto must fall back to the μR-tree engine
// (and say so under -stats); -mode cell must fail rather than answer.
func TestCellRangeModes(t *testing.T) {
	var csv strings.Builder
	for k := 0; k < 8; k++ {
		fmt.Fprintf(&csv, "%ge30,0\n", float64(k))
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-eps", "1", "-minpts", "2", "-mode", "auto", "-stats"},
		strings.NewReader(csv.String()), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(stdout.String()); len(got) != 8 || strings.Join(got, "") != strings.Repeat("-1", 8) {
		t.Fatalf("auto labels %q, want eight -1", got)
	}
	if !strings.Contains(stderr.String(), "engine=seq") {
		t.Fatalf("auto -stats must report the fallback engine: %q", stderr.String())
	}
	err := run([]string{"-eps", "1", "-minpts", "2", "-mode", "cell"},
		strings.NewReader(csv.String()), &stdout, &stderr)
	if !errors.Is(err, mudbscan.ErrCellRange) {
		t.Fatalf("-mode cell on unrepresentable data: err = %v, want ErrCellRange", err)
	}
}

// TestStreamModeMatchesSeq: the streaming tier is exact, so -mode stream
// must emit the default engine's labels verbatim, whatever -workers says;
// with a damped -lambda the early square expires into noise.
func TestStreamModeMatchesSeq(t *testing.T) {
	var seqOut, streamOut, stderr bytes.Buffer
	if err := run([]string{"-eps", "0.5", "-minpts", "3"},
		strings.NewReader(squareCSV), &seqOut, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "stream", "-workers", "4", "-stats"},
		strings.NewReader(squareCSV), &streamOut, &stderr); err != nil {
		t.Fatal(err)
	}
	if seqOut.String() != streamOut.String() {
		t.Fatalf("stream labels differ from seq:\n%q\n%q", seqOut.String(), streamOut.String())
	}
	if !strings.Contains(stderr.String(), "window=landmark") {
		t.Fatalf("stream -stats must report the window: %q", stderr.String())
	}

	// Damped: a horizon of ln(10)/0.5 ≈ 4.6 insertions forgets the first
	// square (rows 0-3) by the time the stream ends.
	var dampedOut bytes.Buffer
	if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", "stream", "-lambda", "0.5"},
		strings.NewReader(squareCSV), &dampedOut, &stderr); err != nil {
		t.Fatal(err)
	}
	labels := strings.Fields(dampedOut.String())
	if len(labels) != 9 {
		t.Fatalf("damped stdout: %q", dampedOut.String())
	}
	for i := 0; i < 4; i++ {
		if labels[i] != "-1" {
			t.Fatalf("expired row %d labeled %s, want -1", i, labels[i])
		}
	}
}

// TestStatsLines: -stats opens with the input parse (read=) in every mode,
// and -mode dist adds the merge bytes, the simulated time and a line of
// per-phase times.
func TestStatsLines(t *testing.T) {
	for _, mode := range []string{"seq", "shared", "cell", "auto", "dist", "stream"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-eps", "0.5", "-minpts", "3", "-mode", mode, "-ranks", "2", "-stats"},
			strings.NewReader(squareCSV), &stdout, &stderr); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		lines := strings.Split(stderr.String(), "\n")
		if !strings.Contains(lines[0], " read=") {
			t.Errorf("mode %s: first stats line %q has no read=", mode, lines[0])
		}
		if mode != "dist" {
			continue
		}
		for _, field := range []string{" mergeBytes=", " simulated=", " time="} {
			if !strings.Contains(lines[0], field) {
				t.Errorf("dist: first stats line %q has no%s", lines[0], field)
			}
		}
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "phases: ") {
			t.Fatalf("dist: no phases line after %q", lines[0])
		}
		for _, field := range []string{"partition=", " halo=", " tree=", " reach=", " cluster=", " post=", " merge="} {
			if !strings.Contains(lines[1], field) {
				t.Errorf("dist: phases line %q has no %s", lines[1], field)
			}
		}
	}
}

func TestHardenedAndChaosFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-eps", "0.5", "-minpts", "3", "-mode", "dist", "-ranks", "2", "-stats"},
		{"-eps", "0.5", "-minpts", "3", "-mode", "dist", "-ranks", "2", "-chaos-seed", "3", "-stats"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(squareCSV), &stdout, &stderr); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		labels := strings.Fields(stdout.String())
		if len(labels) != 9 || labels[8] != "-1" {
			t.Fatalf("args %v stdout: %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "envBytes=") {
			t.Fatalf("args %v: reliability counters missing from stats: %q", args, stderr.String())
		}
	}
}

func TestSuggestEpsFlag(t *testing.T) {
	var csv strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "%g,%g\n", float64(i%20)*0.05, float64(i/20)*0.05)
	}
	csv.WriteString("500,500\n")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-suggest-eps", "-minpts", "5"},
		strings.NewReader(csv.String()), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	eps, err := strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
	if err != nil || eps <= 0 {
		t.Fatalf("suggested eps %q: %v", stdout.String(), err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                // missing eps
		{"-eps", "-1"},                    // bad eps
		{"-eps", "1", "-mode", "bogus"},   // bad mode
		{"-eps", "1", "-in", "/no/file"},  // missing input
		{"-eps", "1", "-badflag", "true"}, // bad flag
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(""), &stdout, &stderr); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

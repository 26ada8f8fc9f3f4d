package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
)

// TestScaledRunEmitsEveryMetric runs both passes over all four workloads at
// 2 % scale and requires every metric name of BENCHMARK.json exactly once per
// workload, with the manifest's unit, and nothing else. The multi-worker
// samples run at one worker: at two they can deadlock, which would cost this
// test their deadline and prove nothing the guard test below does not.
func TestScaledRunEmitsEveryMetric(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[int]map[string]string{0: {}, 1: {}}
	for trace, list := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		for _, mm := range list {
			if !nameRE.MatchString(mm.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", mm.Name)
			}
			if _, dup := want[trace][mm.Name]; dup {
				t.Errorf("metric %q is listed twice", mm.Name)
			}
			want[trace][mm.Name] = mm.Unit
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}

	out := filepath.Join(t.TempDir(), "out.jsonl")
	var stdout bytes.Buffer
	ok, err := run(config{seed: 1, seconds: 0, trace: "both", scale: 0.02, par: 1, out: out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("the run reported wrong outputs:\n%s", stdout.String())
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[[2]any]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		key := [2]any{rec.Workload, rec.Trace}
		if seen[key] {
			t.Errorf("%s: pass %d recorded twice", rec.Workload, rec.Trace)
		}
		seen[key] = true
		if rec.Scale != 0.02 {
			t.Errorf("%s: the record does not carry its scale", rec.Workload)
		}
		if rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s pass %d: %d of %d operations failed: %v", rec.Workload, rec.Trace, rec.Failed, rec.Attempted, rec.Failures)
		}
		for name, v := range rec.Metrics {
			unit, listed := want[rec.Trace][name]
			if !listed {
				t.Errorf("%s: metric %q is not in BENCHMARK.json", rec.Workload, name)
			} else if unit != v.Unit {
				t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", rec.Workload, name, v.Unit, unit)
			}
		}
		for name := range want[rec.Trace] {
			if _, emitted := rec.Metrics[name]; !emitted {
				t.Errorf("%s: metric %q of BENCHMARK.json was not emitted", rec.Workload, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for trace := 0; trace <= 1; trace++ {
			if !seen[[2]any{w.Name, trace}] {
				t.Errorf("workload %s of BENCHMARK.json: pass %d did not run", w.Name, trace)
			}
		}
	}

	// The last line of standard output is the driver's result object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(last))
	}

	// A scaled run can never be compared with anything.
	if _, err := readRecords(out); err == nil {
		t.Error("readRecords accepted a scaled run")
	}
	// Everything the run wrote apart from -out is gone.
	if left, _ := filepath.Glob(filepath.Join(buildDir, "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestGuardReturnsWhenTheOperationNeverDoes(t *testing.T) {
	start := time.Now()
	_, _, err := guard(50*time.Millisecond, func() (result, error) { select {} })
	if !errors.Is(err, errDeadline) {
		t.Fatalf("guard returned %v, want the deadline error", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("guard took %v to give up on a 50 ms deadline", took)
	}
	_, _, err = guard(time.Second, func() (result, error) { panic("boom") })
	if err == nil || errors.Is(err, errDeadline) {
		t.Fatalf("a panicking operation reported %v, want its panic as an error", err)
	}
}

func TestOutputCheckCatchesOneFlippedCoreFlag(t *testing.T) {
	pts := data.GalaxyLike(2000, 3, 5)
	ref, _ := cell.Run(pts, 2.0, 5, cell.Options{Workers: 1})
	got := &clustering.Result{
		Labels:      append([]int(nil), ref.Labels...),
		Core:        append([]bool(nil), ref.Core...),
		NumClusters: ref.NumClusters,
	}
	if err := checkResult(ref, got); err != nil {
		t.Fatalf("an identical result failed the check: %v", err)
	}
	if err := checkLabels(ref, got.Labels); err != nil {
		t.Fatalf("identical labels failed the check: %v", err)
	}
	got.Core[len(got.Core)/2] = !got.Core[len(got.Core)/2]
	if err := checkResult(ref, got); !errors.Is(err, errMismatch) {
		t.Fatalf("one flipped core flag passed the check (%v)", err)
	}
}

func TestQuartilesAreTheDriversQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare two synthetic sets: one metric steady and
// 20 % worse, one whose own spread is wider than any bound.
func TestCompareVerdicts(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 10; run++ {
			rec := record{Workload: m.Workloads[0].Name, Scale: 1, Metrics: map[string]recordValue{}}
			for i, mm := range m.EndToEnd {
				v := 1 + 0.001*float64(run)
				switch i {
				case 0:
					v *= factor // steady, and worse in b
				case 1:
					v = 1 + float64(run) // spread far beyond the bound
				}
				rec.Metrics[mm.Name] = recordValue{Value: v, Unit: mm.Unit}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.3)
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err == nil {
		t.Error("a 30 % regression passed the comparison")
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, " "+m.EndToEnd[0].Name+" "):
			if !strings.Contains(line, "WORSE") {
				t.Errorf("regressed metric not flagged: %s", line)
			}
		case strings.Contains(line, " "+m.EndToEnd[1].Name+" "):
			if !strings.Contains(line, "unresolved") {
				t.Errorf("noisy metric not reported as unresolved: %s", line)
			}
		case strings.Contains(line, m.Workloads[0].Name):
			if !strings.Contains(line, "within bound") {
				t.Errorf("unchanged metric not within bound: %s", line)
			}
		}
	}
	out.Reset()
	if err := compareFiles(&out, a, a); err != nil {
		t.Errorf("a set compared with itself: %v", err)
	}
}

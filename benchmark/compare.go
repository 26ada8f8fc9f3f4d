package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json, the contract the driver reads, that
// the comparison and the tests need.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest() (*manifest, error) {
	body, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Scale != 1 {
			return nil, fmt.Errorf("%s holds a -scale %g run; scaled runs are for tests and compare with nothing", path, r.Scale)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles are Python's statistics.quantiles(vals, n=4): the driver's
// definition, so that a spread computed here is the spread it will see.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one metric on one workload in one file: the median over the file's
// runs and the quartile spread as a share of it.
type side struct {
	runs           int
	median, spread float64
}

func summarize(recs []record, trace int) map[[2]string]side {
	vals := map[[2]string][]float64{}
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		for name, v := range r.Metrics {
			k := [2]string{r.Workload, name}
			vals[k] = append(vals[k], v.Value) //mulint:allow determinism/maprange every key gets one value per record, so record order alone orders each slice
		}
	}
	out := map[[2]string]side{}
	for k, v := range vals {
		s := side{runs: len(v), median: median(v)}
		if len(v) >= 2 && s.median != 0 {
			q1, _, q3 := quartiles(v)
			s.spread = (q3 - q1) / s.median
		}
		out[k] = s
	}
	return out
}

// compareFiles prints, for every (metric, workload) the two files share, how b
// differs from a against that metric's bound. A difference counts only when
// both sides' own run-to-run spread is inside the bound; otherwise the pair
// is unresolved, not unchanged. It fails when an end-to-end metric got worse
// by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	m, err := readManifest()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	worse := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tworse by\tbound\ta spread\tb spread\truns\tverdict")
	for _, group := range []struct {
		trace   int
		metrics []manifestMetric
	}{{0, m.EndToEnd}, {1, m.PerLayer}} {
		sa, sb := summarize(a, group.trace), summarize(b, group.trace)
		for _, wl := range m.Workloads {
			for _, mm := range group.metrics {
				k := [2]string{wl.Name, mm.Name}
				x, okA := sa[k]
				y, okB := sb[k]
				if !okA || !okB {
					continue
				}
				diff := 0.0
				if x.median != 0 {
					diff = (y.median - x.median) / x.median
				}
				if mm.Better == "higher" {
					diff = -diff
				}
				verdict := "-" // per-layer metrics carry no bound
				if group.trace == 0 {
					switch {
					case x.spread > mm.Bound || y.spread > mm.Bound || x.runs < 2 || y.runs < 2:
						verdict = "unresolved"
					case diff > mm.Bound:
						verdict = "WORSE"
						worse++
					default:
						verdict = "within bound"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%d/%d\t%s\n",
					wl.Name, mm.Name, x.median, y.median, 100*diff, 100*mm.Bound, 100*x.spread, 100*y.spread, x.runs, y.runs, verdict)
			}
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", worse)
	}
	return nil
}

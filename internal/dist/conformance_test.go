package dist

import (
	"fmt"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// confDataset is one entry of the conformance table: a seeded dataset plus
// the DBSCAN parameters it is clustered with. The constructions themselves
// live in data.ConformanceCases so the daemon suite holds its serving paths
// to the very same seven datasets.
type confDataset struct {
	name   string
	pts    []geom.Point
	eps    float64
	minPts int
}

func conformanceDatasets() []confDataset {
	cases := data.ConformanceCases()
	out := make([]confDataset, len(cases))
	for i, c := range cases {
		out[i] = confDataset{name: c.Name, pts: c.Pts, eps: c.Eps, minPts: c.MinPts}
	}
	return out
}

// TestDistributedConformance is the distributed conformance suite: every
// exact distributed algorithm, on every conformance dataset (μDBSCAN-D on the
// scenario corpus too), at every rank count, under both execution modes, must
// (a) reproduce brute-force DBSCAN exactly — μDBSCAN-D byte for byte, the
// baselines, whose borders go to the first core to claim them, up to border
// ties — and (b) produce byte-identical output under ExecSerial and
// ExecConcurrent.
func TestDistributedConformance(t *testing.T) {
	algos := []struct {
		name  string
		run   distAlgo
		brute bool // gives each border its smallest-id core neighbor, as Brute does
	}{
		{"muDBSCAN-D", MuDBSCAND, true},
		{"PDSDBSCAN-D", PDSDBSCAND, false},
		{"GridDBSCAN-D", GridDBSCAND, false},
		{"HPDBSCAN", HPDBSCAN, false},
	}
	conformance := len(conformanceDatasets())
	for k, ds := range pinnedCases() {
		want, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
		for _, al := range algos {
			if k >= conformance && !al.brute {
				continue
			}
			for _, p := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", ds.name, al.name, p), func(t *testing.T) {
					var results [2]*clustering.Result
					for i, exec := range []Exec{ExecSerial, ExecConcurrent} {
						got, _, err := al.run(ds.pts, ds.eps, ds.minPts, p, Options{Seed: 7, Exec: exec})
						if err != nil {
							t.Fatalf("exec=%d: %v", exec, err)
						}
						if err := got.Validate(); err != nil {
							t.Fatalf("exec=%d invalid: %v", exec, err)
						}
						if err := bruteError(ds.pts, ds.eps, want, got, al.brute); err != nil {
							t.Fatalf("exec=%d not exact: %v", exec, err)
						}
						results[i] = got
					}
					if !reflect.DeepEqual(results[0].Labels, results[1].Labels) {
						t.Fatal("serial and concurrent labels differ")
					}
					if !reflect.DeepEqual(results[0].Core, results[1].Core) {
						t.Fatal("serial and concurrent core flags differ")
					}
					if results[0].NumClusters != results[1].NumClusters {
						t.Fatalf("serial clusters=%d concurrent=%d",
							results[0].NumClusters, results[1].NumClusters)
					}
				})
			}
		}
	}
}

// TestConformanceBorderTieAssignsBorder pins the border-tie dataset's
// semantics: the middle point must be a non-core member of the cluster of its
// smallest-id core neighbor (never noise), and the two clusters must stay
// separate.
func TestConformanceBorderTieAssignsBorder(t *testing.T) {
	pts := data.BorderTieCase()
	for _, exec := range []Exec{ExecSerial, ExecConcurrent} {
		r, _, err := MuDBSCAND(pts, 1.25, 4, 4, Options{Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumClusters != 2 {
			t.Fatalf("clusters=%d want 2", r.NumClusters)
		}
		mid := len(pts) - 1
		if r.Core[mid] {
			t.Fatal("tie point must not be core")
		}
		if r.Labels[mid] == clustering.Noise {
			t.Fatal("tie point within eps of a core must not be noise")
		}
		if r.Labels[mid] != r.Labels[0] {
			t.Fatal("tie point must join the cluster of its smallest-id core neighbor")
		}
		if r.Labels[0] == r.Labels[5] {
			t.Fatal("the two clusters must not merge through the border point")
		}
	}
}

// TestConformanceAllNoise pins the all-noise edge case at every rank count.
func TestConformanceAllNoise(t *testing.T) {
	pts := data.AllNoiseCase()
	for _, p := range []int{1, 2, 4, 8} {
		r, _, err := MuDBSCAND(pts, 1.0, 3, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumClusters != 0 {
			t.Fatalf("p=%d clusters=%d want 0", p, r.NumClusters)
		}
		for i, l := range r.Labels {
			if l != clustering.Noise {
				t.Fatalf("p=%d point %d labeled %d, want noise", p, i, l)
			}
		}
	}
}

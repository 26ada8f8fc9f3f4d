package dist

import (
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// legacyBrute is pre-kernel brute-force DBSCAN frozen in place: per-pair
// geom.Within (dimension check on every call) with freshly-allocated
// neighborhoods, driven by the same union-find cluster-formation rules as
// dbscan.Brute. It is the reference the kernelized hot path is held
// byte-identical against.
func legacyBrute(pts []geom.Point, eps float64, minPts int) *clustering.Result {
	n := len(pts)
	uf := unionfind.New(n)
	coreFlag := make([]bool, n)
	assigned := make([]bool, n)
	for i := 0; i < n; i++ {
		var nbhd []int
		for j, q := range pts {
			if geom.Within(pts[i], q, eps) {
				nbhd = append(nbhd, j)
			}
		}
		if len(nbhd) >= minPts {
			coreFlag[i] = true
			for _, q := range nbhd {
				if q == i {
					continue
				}
				if coreFlag[q] {
					uf.Union(i, q)
				} else if !assigned[q] {
					uf.Union(i, q)
					assigned[q] = true
				}
			}
		} else if !assigned[i] {
			for _, q := range nbhd {
				if coreFlag[q] {
					uf.Union(i, q)
					assigned[i] = true
					break
				}
			}
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = uf.Find(i)
	}
	return clustering.FromUnionLabels(comp, coreFlag)
}

// TestKernelPathByteIdentical holds the flattened hot path to the strongest
// possible standard: on every conformance dataset, the kernelized
// contiguous-storage pipeline must produce the same bytes as the legacy
// per-point layout — not merely an equivalent clustering. This works because
// the specialized kernels accumulate squared terms in the same order as
// geom.DistSq, so every comparison against ε² resolves identically.
func TestKernelPathByteIdentical(t *testing.T) {
	for _, ds := range conformanceDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			want := legacyBrute(ds.pts, ds.eps, ds.minPts)

			got, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatal("kernelized Brute diverges from legacy layout")
			}

			// The tree-indexed baselines visit neighbors in a different order
			// than brute force, so their labels are checked for exact
			// clustering equivalence (identical cores, partition and noise)
			// rather than identical bytes.
			rGot, _ := dbscan.RDBSCAN(ds.pts, ds.eps, ds.minPts)
			if err := clustering.Equivalent(want, rGot); err != nil {
				t.Fatalf("RDBSCAN: %v", err)
			}
			kGot, _ := dbscan.KDBSCAN(ds.pts, ds.eps, ds.minPts)
			if err := clustering.Equivalent(want, kGot); err != nil {
				t.Fatalf("KDBSCAN: %v", err)
			}
			if !reflect.DeepEqual(rGot.Core, want.Core) || !reflect.DeepEqual(kGot.Core, want.Core) {
				t.Fatal("indexed baselines disagree on core flags")
			}

			// μDBSCAN on the same contiguous storage, at one worker and at
			// four: the legacy layout's bytes, borders included.
			for _, workers := range []int{1, 4} {
				muGot, _ := core.Run(ds.pts, ds.eps, ds.minPts, core.Options{Workers: workers})
				if !reflect.DeepEqual(want, muGot) {
					t.Fatalf("core.Run at %d workers diverges from legacy brute (%v)", workers, clustering.Equivalent(want, muGot))
				}
			}
		})
	}
}

// TestLocalDriverManyWorkers runs every rank's local μDBSCAN on three
// workers — the halo logic (no queries, the flag swap and its promotions)
// and the multi-worker logic of the one driver at once — and holds the merged
// clustering to brute force on every conformance dataset.
func TestLocalDriverManyWorkers(t *testing.T) {
	for _, ds := range conformanceDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			want, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
			for _, exec := range []Exec{ExecSerial, ExecConcurrent} {
				got, _, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, 4, Options{
					Exec: exec,
					Core: core.Options{Workers: 3},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("exec %v: diverges from brute force (%v)", exec, clustering.Equivalent(want, got))
				}
			}
		})
	}
}

package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// corpus flattens the pinned conformance table and the scenario corpus into
// one list: the streaming tier is held to the same bar on both.
func corpus() []data.Scenario {
	var cases []data.Scenario
	for _, c := range data.ConformanceCases() {
		cases = append(cases, data.Scenario{Name: c.Name, Pts: c.Pts, Eps: c.Eps, MinPts: c.MinPts})
	}
	return append(cases, data.Scenarios()...)
}

func ingest(t *testing.T, pts []geom.Point, eps float64, minPts int, opts Options) *Clusterer {
	t.Helper()
	c, err := New(len(pts[0]), eps, minPts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// autoBatch is the batch run the auto engine makes of pts at one worker: the
// grid where cell.Prefer picks it, the sequential μR-tree engine otherwise.
// grid reports which one ran.
func autoBatch(pts []geom.Point, eps float64, minPts int) (res *clustering.Result, grid bool) {
	set := geom.PointSetFromPoints(len(pts[0]), pts)
	if cell.Prefer(set, eps, minPts) {
		res, _ = cell.RunSet(set, eps, minPts, cell.Options{Workers: 1})
		return res, true
	}
	res, _ = core.RunSet(set, eps, minPts, core.Options{})
	return res, false
}

// TestSnapshotConformance is the headline contract of the streaming tier:
// on every conformance dataset and every scenario, a landmark snapshot after
// in-order ingest is byte-identical to brute force and to the one-worker
// auto batch run, whichever engine that run picks.
func TestSnapshotConformance(t *testing.T) {
	for _, tc := range corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			bruteRes, _ := dbscan.Brute(tc.Pts, tc.Eps, tc.MinPts)
			autoRes, grid := autoBatch(tc.Pts, tc.Eps, tc.MinPts)
			s := ingest(t, tc.Pts, tc.Eps, tc.MinPts, Options{}).Snapshot()
			if s.Len() != len(tc.Pts) {
				t.Fatalf("window %d want %d", s.Len(), len(tc.Pts))
			}
			res := s.Result()
			if !reflect.DeepEqual(bruteRes, res) {
				t.Fatalf("snapshot not brute force's result (%v)", clustering.Equivalent(bruteRes, res))
			}
			if !reflect.DeepEqual(autoRes, res) {
				t.Fatalf("snapshot differs from the auto batch result (grid %v)", grid)
			}
		})
	}
}

// TestMetamorphicPermutedIngest pins the metamorphic relation: ingesting any
// permutation of a batch and snapshotting yields the same exact clustering
// (equivalent cores/partition/noise) as batch μDBSCAN on the original order,
// and brute force's bytes on the window in arrival order.
func TestMetamorphicPermutedIngest(t *testing.T) {
	for _, tc := range corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			n := len(tc.Pts)
			batch, _ := core.Run(tc.Pts, tc.Eps, tc.MinPts, core.Options{})
			rng := rand.New(rand.NewSource(int64(n)))
			for round := 0; round < 2; round++ {
				perm := rng.Perm(n)
				c, err := New(len(tc.Pts[0]), tc.Eps, tc.MinPts, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range perm {
					if err := c.Add(tc.Pts[idx]); err != nil {
						t.Fatal(err)
					}
				}
				s := c.Snapshot()
				// Window row r holds the point ingested at position
				// s.Seqs[r], i.e. original index perm[s.Seqs[r]].
				labels := make([]int, n)
				cores := make([]bool, n)
				for r := 0; r < s.Len(); r++ {
					orig := perm[s.Seqs[r]]
					labels[orig] = s.Labels[r]
					cores[orig] = s.Core[r]
				}
				res := &clustering.Result{Labels: labels, Core: cores, NumClusters: s.NumClusters}
				if err := clustering.Equivalent(batch, res); err != nil {
					t.Fatalf("permuted ingest not equivalent to batch: %v", err)
				}
				window := make([]geom.Point, s.Len())
				for r := range window {
					window[r] = s.Points.Point(r)
				}
				if want, _ := dbscan.Brute(window, tc.Eps, tc.MinPts); !reflect.DeepEqual(want, s.Result()) {
					t.Fatal("permuted ingest: snapshot not brute force's result on its window")
				}
			}
		})
	}
}

// TestEmptySnapshot pins the zero-state contract: a fresh clusterer
// snapshots to an empty, valid clustering whose Result matches what the
// batch engine returns for an empty input.
func TestEmptySnapshot(t *testing.T) {
	c, err := New(3, 1, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Len() != 0 || s.NumClusters != 0 {
		t.Fatalf("empty stream snapshot: %d points, %d clusters", s.Len(), s.NumClusters)
	}
	batch, _ := core.Run(nil, 1, 4, core.Options{})
	if !reflect.DeepEqual(batch, s.Result()) {
		t.Fatal("empty snapshot Result differs from batch empty result")
	}
	if err := s.Result().Validate(); err != nil {
		t.Fatal(err)
	}
}

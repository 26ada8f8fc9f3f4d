package mudbscan

import (
	"reflect"
	"sort"
	"testing"

	"mudbscan/internal/data"
)

func TestKDistancesSortedAndSized(t *testing.T) {
	pts := toRows(data.Blobs(500, 2, 3, 0.3, 0.1, 5))
	d, err := KDistances(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 500 {
		t.Fatalf("len=%d", len(d))
	}
	if !sort.Float64sAreSorted(d) {
		t.Fatal("k-distances must be sorted")
	}
	if d[0] < 0 {
		t.Fatal("distances must be non-negative")
	}
}

func TestKDistancesValidation(t *testing.T) {
	if _, err := KDistances([][]float64{{1, 2}}, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := KDistances([][]float64{{1}, {1, 2}}, 2); err == nil {
		t.Fatal("dim mismatch should error")
	}
	d, err := KDistances(nil, 3)
	if err != nil || d != nil {
		t.Fatalf("empty input: %v %v", d, err)
	}
	// A k-th neighbor needs k other points.
	for _, c := range []struct {
		pts [][]float64
		k   int
	}{
		{[][]float64{{0}, {4}, {5}}, 5},
		{[][]float64{{0}, {4}, {5}}, 3},
		{[][]float64{{1, 2}}, 1},
	} {
		if d, err := KDistances(c.pts, c.k); err == nil {
			t.Fatalf("%d points, k=%d: got %v, want an error", len(c.pts), c.k, d)
		}
	}
	if d, err := KDistances([][]float64{{0}, {4}, {5}}, 2); err != nil || !reflect.DeepEqual(d, []float64{4, 5, 5}) {
		t.Fatalf("3 points, k=2: %v %v, want [4 5 5]", d, err)
	}
}

func TestSuggestEpsSeparatesBlobsFromNoise(t *testing.T) {
	// Dense blobs with sparse noise: the suggested eps should cluster the
	// blobs without merging everything into one cluster.
	rows := toRows(data.Blobs(2000, 2, 4, 0.2, 0.1, 9))
	eps, err := SuggestEps(rows, 5)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("eps=%g", eps)
	}
	r, err := Cluster(rows, eps, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters < 2 || r.NumClusters > 30 {
		t.Fatalf("suggested eps %g produced %d clusters", eps, r.NumClusters)
	}
	if r.NumNoise() == 0 || r.NumNoise() == len(rows) {
		t.Fatalf("suggested eps %g produced degenerate noise %d", eps, r.NumNoise())
	}
}

func TestSuggestEpsValidation(t *testing.T) {
	if _, err := SuggestEps([][]float64{{1, 2}}, 1); err == nil {
		t.Fatal("minPts<2 should error")
	}
	if _, err := SuggestEps(nil, 5); err == nil {
		t.Fatal("no points should error")
	}
	// MinPts 5 asks for 4-th neighbors: four points have none, five do.
	rows := [][]float64{{0}, {1}, {3}, {6}, {10}}
	if _, err := SuggestEps(rows[:4], 5); err == nil {
		t.Fatal("fewer than MinPts points should error")
	}
	if _, err := SuggestEps(rows, 5); err != nil {
		t.Fatalf("MinPts points: %v", err)
	}
}

func TestSuggestEpsUniformFallback(t *testing.T) {
	// Pure uniform data has no elbow; the percentile fallback must still
	// return something positive.
	rows := toRows(data.Uniform(800, 3, 10, 3))
	eps, err := SuggestEps(rows, 5)
	if err != nil || eps <= 0 {
		t.Fatalf("eps=%g err=%v", eps, err)
	}
}

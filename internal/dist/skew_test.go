package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// Heavily skewed data: nearly all points in one tiny corner, so after
// median splits some ranks own nearly empty regions. Exactness must hold
// and empty-ish ranks must not break the merge.
func TestSkewedDataStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := make([]geom.Point, 0, 600)
	for i := 0; i < 560; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{50 + rng.Float64()*50, 50 + rng.Float64()*50})
	}
	eps, minPts := 0.3, 5
	want, _ := dbscan.Brute(pts, eps, minPts)
	for _, p := range []int{2, 4, 8, 16} {
		got, _, err := MuDBSCAND(pts, eps, minPts, p, Options{Seed: 5})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: not brute force's result (%v)", p, clustering.Equivalent(want, got))
		}
	}
}

// Identical points everywhere: degenerate medians, zero-width regions.
func TestAllDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{3, 3, 3}
	}
	want, _ := dbscan.Brute(pts, 0.5, 5)
	got, _, err := MuDBSCAND(pts, 0.5, 5, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("not brute force's result (%v)", clustering.Equivalent(want, got))
	}
	if got.NumClusters != 1 {
		t.Fatalf("100 coincident points must form one cluster, got %d", got.NumClusters)
	}
}

// More ranks than points: most ranks own nothing at all.
func TestMoreRanksThanPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	want, _ := dbscan.Brute(pts, 0.4, 3)
	got, _, err := MuDBSCAND(pts, 0.4, 3, 16, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("not brute force's result (%v)", clustering.Equivalent(want, got))
	}
}

// A cluster straddling a partition boundary relies entirely on halo +
// merge: construct a thin line of points crossing all split axes.
func TestClusterStraddlingBoundaries(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.2, float64(i) * 0.2})
	}
	eps, minPts := 0.5, 3
	want, _ := dbscan.Brute(pts, eps, minPts)
	if want.NumClusters != 1 {
		t.Fatalf("test setup: want one chain cluster, got %d", want.NumClusters)
	}
	for _, p := range []int{2, 4, 8} {
		got, st, err := MuDBSCAND(pts, eps, minPts, p, Options{Seed: 3})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: not brute force's result (%v)", p, clustering.Equivalent(want, got))
		}
		if p > 1 && st.HaloPoints == 0 {
			t.Fatalf("p=%d: a straddling chain must exchange halo points", p)
		}
	}
}

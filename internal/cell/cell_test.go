package cell

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// TestCellConformance is the engine's whole claim: on every conformance
// dataset — including the grid-adversarial boundary lattice and hot-cell
// cases — the cell engine's Result must be byte-identical (DeepEqual) to
// brute-force DBSCAN, at one worker and at several.
func TestCellConformance(t *testing.T) {
	for _, cc := range data.ConformanceCases() {
		want, _ := dbscan.Brute(cc.Pts, cc.Eps, cc.MinPts)
		for _, workers := range []int{1, 4} {
			got, st := Run(cc.Pts, cc.Eps, cc.MinPts, Options{Workers: workers})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s (workers=%d): cell result differs from brute force", cc.Name, workers)
			}
			if st.Cells <= 0 || st.Queries+st.QueriesSaved != len(cc.Pts) {
				t.Errorf("%s (workers=%d): stats cells=%d queries=%d saved=%d, want every point queried or saved",
					cc.Name, workers, st.Cells, st.Queries, st.QueriesSaved)
			}
		}
	}
}

// TestCellMatchesBruteRandom widens the net beyond the pinned table: seeded
// random datasets across dimensionalities and parameter ranges, every one
// DeepEqual to brute force.
func TestCellMatchesBruteRandom(t *testing.T) {
	for _, tc := range []struct {
		dim    int
		n      int
		eps    float64
		minPts int
		seed   int64
	}{
		{1, 300, 0.4, 3, 1},
		{2, 500, 0.5, 5, 2},
		{3, 400, 0.8, 4, 3},
		{4, 300, 1.2, 4, 4},
		{5, 250, 1.6, 3, 5},
		{8, 200, 2.5, 3, 6},
		{2, 400, 0.5, 1, 7},  // minPts=1: everything core
		{2, 100, 0.1, 50, 8}, // minPts > any neighborhood: all noise
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := make([]geom.Point, tc.n)
		for i := range pts {
			p := make(geom.Point, tc.dim)
			for j := range p {
				p[j] = rng.Float64() * 10
			}
			pts[i] = p
		}
		want, _ := dbscan.Brute(pts, tc.eps, tc.minPts)
		got, _ := Run(pts, tc.eps, tc.minPts, Options{Workers: 3})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("d=%d n=%d eps=%g minPts=%d seed=%d: cell differs from brute",
				tc.dim, tc.n, tc.eps, tc.minPts, tc.seed)
		}
	}
}

// TestCellWorkerInvariance: the labels must be byte-identical at every
// worker count, including counts far beyond the cell count.
func TestCellWorkerInvariance(t *testing.T) {
	cc := data.ConformanceCases()[0]
	base, _ := Run(cc.Pts, cc.Eps, cc.MinPts, Options{Workers: 1})
	for _, w := range []int{2, 3, 7, 64} {
		got, st := Run(cc.Pts, cc.Eps, cc.MinPts, Options{Workers: w})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: result differs from workers=1", w)
		}
		if st.Workers != w {
			t.Fatalf("workers=%d: stats report %d workers", w, st.Workers)
		}
	}
}

// TestCellEmptyAndDegenerate pins the edge inputs.
func TestCellEmptyAndDegenerate(t *testing.T) {
	r, st := Run(nil, 1, 3, Options{})
	if len(r.Labels) != 0 || r.NumClusters != 0 || st.Cells != 0 {
		t.Fatal("empty input must produce an empty result")
	}
	// A single point is noise below minPts 2, core (own cluster) at 1.
	one := []geom.Point{{5, 5}}
	r, _ = Run(one, 1, 2, Options{})
	if r.Labels[0] != -1 || r.Core[0] {
		t.Fatal("single point below minPts must be noise")
	}
	r, _ = Run(one, 1, 1, Options{})
	if r.Labels[0] != 0 || !r.Core[0] || r.NumClusters != 1 {
		t.Fatal("single point at minPts=1 must form its own cluster")
	}
	// All-duplicate input: one dense cell, everything core, one cluster.
	dups := make([]geom.Point, 20)
	for i := range dups {
		dups[i] = geom.Point{1.5, -2.25}
	}
	r, st = Run(dups, 0.5, 5, Options{Workers: 2})
	if r.NumClusters != 1 || st.DenseCells != 1 || st.Queries != 0 {
		t.Fatalf("duplicates: clusters=%d dense=%d queries=%d, want 1/1/0",
			r.NumClusters, st.DenseCells, st.Queries)
	}
}

// TestNeighborsIntoZeroAllocs is the AllocsPerRun twin of the
// //mulint:noalloc annotation on the per-point scan leaf: once the
// neighborhood buffer has warmed, a core-point expansion allocates nothing.
func TestNeighborsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pts := make([]geom.Point, 4000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	eps := 0.8
	ix := build(geom.PointSetFromPoints(len(pts[0]), pts), eps)
	ix.buildAdjacency(1)

	nb := make([]int, 0, len(pts))
	nb, _ = ix.neighborsInto(nb, 0) // warm
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		nb, _ = ix.neighborsInto(nb[:0], k%len(pts))
		k++
	})
	if allocs != 0 {
		t.Fatalf("neighborsInto allocated %.1f times per expansion; want 0", allocs)
	}
}

// TestNeighborsIntoMatchesBruteScan: the leaf must return exactly the
// positions strictly within ε, ascending — including points in far-flung
// adjacent cells near the ε boundary.
func TestNeighborsIntoMatchesBruteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 6, rng.Float64() * 6}
	}
	eps := 0.9
	ix := build(geom.PointSetFromPoints(len(pts[0]), pts), eps)
	ix.buildAdjacency(1)
	kern := geom.KernelFor(2)
	var nb []int
	for p := 0; p < ix.set.Len(); p++ {
		nb, _ = ix.neighborsInto(nb[:0], p)
		var want []int
		for q := 0; q < ix.set.Len(); q++ {
			if kern(ix.set.Row(p), ix.set.Row(q)) < eps*eps {
				want = append(want, q)
			}
		}
		if !reflect.DeepEqual(want, nb) {
			t.Fatalf("position %d: leaf neighborhood differs from brute scan", p)
		}
	}
}

// TestSampleDeterministic: profiling must be pure — identical Profile on
// every call, run counting without map iteration.
func TestSampleDeterministic(t *testing.T) {
	cc := data.ConformanceCases()[3]
	a := Sample(cc.Pts, cc.Eps, cc.MinPts)
	b := Sample(cc.Pts, cc.Eps, cc.MinPts)
	if a != b {
		t.Fatalf("Sample not deterministic: %+v vs %+v", a, b)
	}
	if a.N != len(cc.Pts) || a.Dim != 3 || a.SampleSize == 0 || a.SampleCells == 0 {
		t.Fatalf("degenerate profile %+v", a)
	}
	if a.MaxOccupancy < 1 || a.SampleCells > a.SampleSize {
		t.Fatalf("inconsistent occupancy in %+v", a)
	}
}

// TestSampleBounded: the stride sample must cap at maxProfileSample points
// however large the input.
func TestSampleBounded(t *testing.T) {
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Point{float64(i % 50), float64(i / 50)}
	}
	p := Sample(pts, 1.0, 4)
	if p.SampleSize != maxProfileSample {
		t.Fatalf("sample size %d, want %d", p.SampleSize, maxProfileSample)
	}
	if p.N != 5000 {
		t.Fatalf("profile N %d, want 5000", p.N)
	}
}

// TestDecide pins every branch of the selector rule.
func TestDecide(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		want bool
	}{
		{"empty", Profile{}, false},
		{"low-dim always cell", Profile{N: 100, Dim: 2, MinPts: 5, SampleSize: 100, SampleCells: 50, MaxOccupancy: 4}, true},
		{"d3 boundary", Profile{N: 100, Dim: 3, MinPts: 5, SampleSize: 100, SampleCells: 100, MaxOccupancy: 1}, true},
		{"mid-dim dense cells", Profile{N: 1000, Dim: 5, MinPts: 4, SampleSize: 1000, SampleCells: 100, MaxOccupancy: 40}, true}, // mean 10 ≥ 4
		{"mid-dim sparse cells", Profile{N: 1000, Dim: 5, MinPts: 4, SampleSize: 1000, SampleCells: 900, MaxOccupancy: 3}, false},
		{"high-dim never cell", Profile{N: 1000, Dim: 8, MinPts: 2, SampleSize: 1000, SampleCells: 10, MaxOccupancy: 500}, false},
	}
	for _, c := range cases {
		if got := Decide(c.p); got != c.want {
			t.Errorf("%s: Decide=%v, want %v", c.name, got, c.want)
		}
	}
}

// TestRepresentable pins the guard's bound, |v|/side < 2^52 on every
// coordinate, and that just inside it the engine is still exact at a large
// offset from the origin.
func TestRepresentable(t *testing.T) {
	const eps = 1.0
	lim := cellSide(eps, 2) * coordLimit
	cases := []struct {
		name string
		pts  []geom.Point
		want bool
	}{
		{"empty", nil, true},
		{"origin", []geom.Point{{0, 0}}, true},
		{"just inside", []geom.Point{{0, math.Nextafter(lim, 0)}, {-math.Nextafter(lim, 0), 0}}, true},
		{"at the bound", []geom.Point{{0, 0}, {0, lim}}, false},
		{"negative past the bound", []geom.Point{{-2 * lim, 0}}, false},
		{"saturating int64", []geom.Point{{1e30, 0}}, false},
		{"NaN", []geom.Point{{math.NaN(), 0}}, false},
		{"Inf", []geom.Point{{0, math.Inf(1)}}, false},
	}
	for _, c := range cases {
		set := geom.NewPointSet(2, len(c.pts))
		for _, p := range c.pts {
			set.Append(p)
		}
		if got := Representable(set, eps); got != c.want {
			t.Errorf("%s: Representable = %v, want %v", c.name, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(3))
	base := lim / 4
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{base + rng.Float64()*14, base + rng.Float64()*14}
	}
	if !Representable(geom.PointSetFromPoints(2, pts), eps) {
		t.Fatal("offset box inside the bound reported unrepresentable")
	}
	want, _ := dbscan.Brute(pts, eps, 4)
	got, _ := Run(pts, eps, 4, Options{Workers: 2})
	if !reflect.DeepEqual(want, got) {
		t.Error("cell engine differs from brute force at a representable offset")
	}
}

// BenchmarkCellEngine measures the end-to-end engine against the same
// dataset shape the core benchmarks use.
func BenchmarkCellEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 20, rng.Float64() * 20}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(pts, 0.3, 5, Options{Workers: 1})
	}
}

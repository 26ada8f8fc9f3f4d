package cell

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

// pinned is what Run reports on every conformance and scenario dataset, in
// table order. Cells, DenseCells, Queries and QueriesSaved are the same at
// any worker count, and are as they were before core marking stopped each
// scan at minPts hits and Connect began to visit touching cells first.
// distCalcs is the one-worker count, which those two changes lowered; the
// values before, in table order: 19679, 3925, 3969, 37324, 200, 83, 10235,
// 5593, 448, 11690, 312098, 1656, 41501.
var pinned = []struct {
	name                              string
	cells, denseCells, queries, saved int
	distCalcs                         int64
}{
	{"blobs-3d", 277, 2, 387, 13, 6439},
	{"blobs-2d-small-eps", 179, 30, 156, 194, 1633},
	{"uniform-2d", 264, 0, 300, 0, 3798},
	{"skewed-3d", 182, 12, 272, 78, 10043},
	{"all-noise", 100, 0, 100, 0, 200},
	{"border-tie-1d", 4, 1, 6, 5, 81},
	{"lattice-dup-2d", 64, 2, 168, 12, 4941},
	{"cell-boundary-lattice-2d", 196, 0, 196, 0, 3542},
	{"hot-cell-skew-2d", 40, 1, 39, 64, 445},
	{"geo-drift", 1038, 52, 1008, 1392, 10515},
	{"highdim-embed", 1081, 23, 1304, 196, 8604},
	{"all-border-ties", 120, 24, 168, 96, 1488},
	{"bursty-arrival", 369, 92, 353, 1647, 10059},
}

// TestCellCountersPinned holds the engine's counters to pinned: the cell
// table and the marking counts at 1 and 4 workers, the rows scanned at one
// worker (at more, Connect's early exits race and the count may vary).
func TestCellCountersPinned(t *testing.T) {
	inputs := tableDatasets()
	if len(inputs) != len(pinned) {
		t.Fatalf("%d datasets, %d pins", len(inputs), len(pinned))
	}
	for k, in := range inputs {
		pin := pinned[k]
		if in.name != pin.name {
			t.Fatalf("pin %d is for %q, dataset is %q", k, pin.name, in.name)
		}
		for _, workers := range []int{1, 4} {
			_, st := Run(in.pts, in.eps, in.minPts, Options{Workers: workers})
			if st.Cells != pin.cells || st.DenseCells != pin.denseCells || st.Queries != pin.queries || st.QueriesSaved != pin.saved {
				t.Errorf("%s (workers=%d): cells=%d dense=%d queries=%d saved=%d, pinned %d %d %d %d", in.name, workers,
					st.Cells, st.DenseCells, st.Queries, st.QueriesSaved, pin.cells, pin.denseCells, pin.queries, pin.saved)
			}
			if workers == 1 && st.DistCalcs != pin.distCalcs {
				t.Errorf("%s: distcalcs=%d at one worker, pinned %d", in.name, st.DistCalcs, pin.distCalcs)
			}
		}
	}
}

// TestAdjacencyAllocs: the adjacency is one arena, not a slice per cell —
// building it makes a constant number of allocations plus per-worker
// scratch, on sets of 2 000 to 57 000 cells.
func TestAdjacencyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2000, 100000} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		ix := build(geom.PointSetFromPoints(2, pts), 0.5)
		for _, workers := range []int{1, 4} {
			allocs := testing.AllocsPerRun(3, func() { ix.buildAdjacency(workers) })
			if budget := 32 + 16*workers; allocs > float64(budget) {
				t.Errorf("%d cells, workers=%d: %.0f allocations, want ≤ %d", ix.numCells(), workers, allocs, budget)
			}
		}
	}
}

// TestNeighborsIntoZeroAllocs is the AllocsPerRun twin of the
// //mulint:noalloc annotation on the per-point scan leaf: once the
// neighborhood buffer has warmed, a core-point expansion allocates nothing,
// and neither does the minPts-bounded scan core marking runs.
func TestNeighborsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pts := make([]geom.Point, 4000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	eps := 0.8
	ix := build(geom.PointSetFromPoints(len(pts[0]), pts), eps)
	ix.buildAdjacency(1)

	for _, limit := range []int{math.MaxInt, 5} {
		nb := make([]int, 0, len(pts))
		nb, _ = ix.neighborsInto(nb, 0, limit) // warm
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			nb, _ = ix.neighborsInto(nb[:0], k%len(pts), limit)
			k++
		})
		if allocs != 0 {
			t.Fatalf("neighborsInto (limit %d) allocated %.1f times per expansion; want 0", limit, allocs)
		}
	}
}

// TestNeighborsIntoMatchesBruteScan: the leaf must return exactly the
// positions strictly within ε, ascending — including points in far-flung
// adjacent cells near the ε boundary. Bounded by a limit, its hits are a
// prefix of that answer holding at least limit of them, or the whole
// answer, from no more rows scanned.
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
	var nb, bounded []int
	for p := 0; p < ix.set.Len(); p++ {
		var scanned int
		nb, scanned = ix.neighborsInto(nb[:0], p, math.MaxInt)
		var want []int
		for q := 0; q < ix.set.Len(); q++ {
			if kern(ix.set.Row(p), ix.set.Row(q)) < eps*eps {
				want = append(want, q)
			}
		}
		if !reflect.DeepEqual(want, nb) {
			t.Fatalf("position %d: leaf neighborhood differs from brute scan", p)
		}
		for _, limit := range []int{1, 2, 5, 9, 20} {
			var got int
			bounded, got = ix.neighborsInto(bounded[:0], p, limit)
			if len(bounded) < min(limit, len(want)) || !reflect.DeepEqual(bounded, want[:len(bounded)]) || got > scanned {
				t.Fatalf("position %d, limit %d: %d hits from %d rows, want a prefix of the %d hits holding at least min(limit, %d), from ≤ %d rows",
					p, limit, len(bounded), got, len(want), len(want), scanned)
			}
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

// TestPreferMatchesDecideOfSample pins Prefer's shortcut: drawing the sample
// only at 4 ≤ d ≤ 7 gives the same bit as the full rule, Decide of the
// sample profile and Representable, on the conformance table, the scenario
// corpus, random sets at d = 1…14 (each at a sparse and a dense ε, so the
// mid band decides both ways), an empty set and a set the grid cannot index.
func TestPreferMatchesDecideOfSample(t *testing.T) {
	type input struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}
	var ins []input
	for _, cc := range data.ConformanceCases() {
		ins = append(ins, input{cc.Name, cc.Pts, cc.Eps, cc.MinPts})
	}
	for _, sc := range data.Scenarios() {
		ins = append(ins, input{sc.Name, sc.Pts, sc.Eps, sc.MinPts})
	}
	rng := rand.New(rand.NewSource(45))
	for dim := 1; dim <= 14; dim++ {
		pts := make([]geom.Point, 400)
		for i := range pts {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = rng.Float64() * 10
			}
			pts[i] = p
		}
		for _, eps := range []float64{0.8, 20} {
			ins = append(ins, input{fmt.Sprintf("random-d%d-eps%g", dim, eps), pts, eps, 4})
		}
	}
	ins = append(ins, input{"unrepresentable", []geom.Point{{0, 0}, {1e30, 0}, {0.1, 0}}, 1, 2})

	midBand := map[bool]int{}
	for _, in := range ins {
		dim := len(in.pts[0])
		set := geom.PointSetFromPoints(dim, in.pts)
		want := Decide(Sample(in.pts, in.eps, in.minPts)) && Representable(set, in.eps)
		if got := Prefer(set, in.eps, in.minPts); got != want {
			t.Errorf("%s: Prefer = %v, Decide(Sample) && Representable = %v", in.name, got, want)
		}
		if dim >= 4 && dim <= 7 {
			midBand[want]++
		}
	}
	if midBand[true] == 0 || midBand[false] == 0 {
		t.Fatalf("mid-band picks %v: the inputs must drive Decide's sampled branch both ways", midBand)
	}
	if Prefer(geom.NewPointSet(3, 0), 1, 4) {
		t.Error("empty set: Prefer = true")
	}
	if Prefer(geom.PointSetFromPoints(2, ins[len(ins)-1].pts), 1, 2) {
		t.Error("unrepresentable set: Prefer = true")
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

// BenchmarkCellEngine measures the end-to-end engine at one worker on a
// uniform 2-d set, the shape the core benchmarks use, and on the galaxy3d
// harness workload, the low-d regime the auto policy sends here. Each case
// reports the five phase times and the rows scanned per run.
func BenchmarkCellEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	uniform := make([]geom.Point, 20000)
	for i := range uniform {
		uniform[i] = geom.Point{rng.Float64() * 20, rng.Float64() * 20}
	}
	for _, bc := range []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}{
		{"uniform2d", uniform, 0.3, 5},
		{"galaxy3d", data.GalaxyLike(100000, 3, 5), 2, 5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sum StepTimes
			var dist int64
			for i := 0; i < b.N; i++ {
				_, st := Run(bc.pts, bc.eps, bc.minPts, Options{Workers: 1})
				sum.Build += st.Steps.Build
				sum.Adjacency += st.Steps.Adjacency
				sum.Mark += st.Steps.Mark
				sum.Connect += st.Steps.Connect
				sum.Assign += st.Steps.Assign
				dist += st.DistCalcs
			}
			for _, m := range []struct {
				d    time.Duration
				unit string
			}{
				{sum.Build, "build-ms/op"},
				{sum.Adjacency, "adjacency-ms/op"},
				{sum.Mark, "mark-ms/op"},
				{sum.Connect, "connect-ms/op"},
				{sum.Assign, "assign-ms/op"},
			} {
				b.ReportMetric(float64(m.d.Microseconds())/1e3/float64(b.N), m.unit)
			}
			b.ReportMetric(float64(dist)/float64(b.N), "distcalcs/op")
		})
	}
}

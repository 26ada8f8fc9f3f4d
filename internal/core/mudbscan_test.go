package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

func blobs(rng *rand.Rand, n, d, k int, spread, noiseFrac float64) []geom.Point {
	centers := make([]geom.Point, k)
	for i := range centers {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = rng.Float64() * 20
		}
		centers[i] = c
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		if rng.Float64() < noiseFrac {
			for j := range p {
				p[j] = rng.Float64() * 20
			}
		} else {
			c := centers[rng.Intn(k)]
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
		}
		pts[i] = p
	}
	return pts
}

func requireExact(t *testing.T, name string, pts []geom.Point, eps float64, minPts int, opts Options) {
	t.Helper()
	want, _ := dbscan.Brute(pts, eps, minPts)
	got, st := Run(pts, eps, minPts, opts)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid: %v", name, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: not brute force's result: %v (n=%d eps=%g minPts=%d)", name, clustering.Equivalent(want, got), len(pts), eps, minPts)
	}
	if st.Queries+st.QueriesSaved != len(pts) {
		t.Fatalf("%s: queries %d + saved %d != n %d", name, st.Queries, st.QueriesSaved, len(pts))
	}
}

func TestExactOnBlobs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + int(seed%3)
		pts := blobs(rng, 700, d, 4, 0.3, 0.15)
		requireExact(t, "default", pts, 0.4, 5, Options{})
	}
}

func TestExactHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	pts := blobs(rng, 400, 14, 3, 0.5, 0.1)
	requireExact(t, "d=14", pts, 3.0, 5, Options{})
}

func TestExactDenseSingleCluster(t *testing.T) {
	// Everything in one tight ball: one DMC, every point wndq-core, zero queries.
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05}
	}
	want, _ := dbscan.Brute(pts, 1.0, 5)
	got, st := Run(pts, 1.0, 5, Options{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("not brute force's result (%v)", clustering.Equivalent(want, got))
	}
	if got.NumClusters != 1 {
		t.Fatalf("NumClusters=%d want 1", got.NumClusters)
	}
	if st.Queries != 0 {
		t.Fatalf("tight ball should save all queries, ran %d", st.Queries)
	}
	if st.NumMCs != 1 {
		t.Fatalf("NumMCs=%d want 1", st.NumMCs)
	}
}

func TestExactAllNoise(t *testing.T) {
	// Far-apart singletons: all noise, no cluster.
	pts := []geom.Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	got, st := Run(pts, 1.0, 3, Options{})
	if got.NumClusters != 0 || got.NumNoise() != 5 {
		t.Fatalf("clusters=%d noise=%d", got.NumClusters, got.NumNoise())
	}
	if st.QueriesSaved != 0 {
		t.Fatal("sparse singletons cannot save queries")
	}
	requireExact(t, "all-noise", pts, 1.0, 3, Options{})
}

func TestAblationOptionsRemainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := blobs(rng, 500, 3, 4, 0.3, 0.2)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"NoDeferral", Options{NoDeferral: true}},
		{"DisableWndq", Options{DisableWndq: true}},
		{"AllOff", Options{NoDeferral: true, DisableWndq: true}},
	} {
		requireExact(t, tc.name, pts, 0.5, 5, tc.opts)
	}
}

func TestDisableWndqQueriesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := blobs(rng, 300, 2, 2, 0.2, 0.1)
	_, st := Run(pts, 0.5, 5, Options{DisableWndq: true})
	if st.QueriesSaved != 0 || st.Queries != len(pts) {
		t.Fatalf("DisableWndq: queries=%d saved=%d", st.Queries, st.QueriesSaved)
	}
}

func TestWndqSavesQueriesOnDenseData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := blobs(rng, 3000, 2, 3, 0.15, 0.05)
	_, st := Run(pts, 0.5, 5, Options{})
	if st.QuerySavedPct() < 40 {
		t.Fatalf("dense blobs should save >40%% of queries, saved %.1f%%", st.QuerySavedPct())
	}
	if st.WndqFromMCs == 0 {
		t.Fatal("expected some wndq-cores from step 1's micro-cluster proofs")
	}
	if st.NumMCs >= len(pts)/2 {
		t.Fatalf("m=%d should be far below n=%d", st.NumMCs, len(pts))
	}
}

func TestStepTimesPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := blobs(rng, 2000, 3, 3, 0.3, 0.1)
	_, st := Run(pts, 0.5, 5, Options{})
	if st.Steps.TreeConstruction <= 0 || st.Steps.Total() <= 0 {
		t.Fatalf("step times not populated: %+v", st.Steps)
	}
}

func TestEmptyInput(t *testing.T) {
	r, st := Run(nil, 1, 5, Options{})
	if len(r.Labels) != 0 || st.Queries != 0 {
		t.Fatal("empty input should produce empty result")
	}
}

func TestSinglePoint(t *testing.T) {
	r, _ := Run([]geom.Point{{1, 2, 3}}, 1, 5, Options{})
	if r.Labels[0] != clustering.Noise {
		t.Fatal("single point must be noise")
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many coincident points: all mutually at distance 0.
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Point{1, 1}
	}
	pts = append(pts, geom.Point{5, 5})
	requireExact(t, "duplicates", pts, 0.5, 5, Options{})
}

func TestOrderInvariance(t *testing.T) {
	// Exactness criteria must be identical under input permutation.
	rng := rand.New(rand.NewSource(9))
	pts := blobs(rng, 400, 2, 3, 0.3, 0.2)
	eps, minPts := 0.5, 5
	base, _ := Run(pts, eps, minPts, Options{})
	for trial := 0; trial < 3; trial++ {
		perm := rng.Perm(len(pts))
		shuffled := make([]geom.Point, len(pts))
		inv := make([]int, len(pts))
		for i, j := range perm {
			shuffled[j] = pts[i]
			inv[i] = j
		}
		got, _ := Run(shuffled, eps, minPts, Options{})
		// Map back to original indexing.
		labels := make([]int, len(pts))
		coreFlags := make([]bool, len(pts))
		for i := range pts {
			labels[i] = got.Labels[inv[i]]
			coreFlags[i] = got.Core[inv[i]]
		}
		back := &clustering.Result{Labels: labels, Core: coreFlags, NumClusters: got.NumClusters}
		if err := clustering.Equivalent(base, back); err != nil {
			t.Fatalf("permutation %d changed the exact clustering: %v", trial, err)
		}
	}
}

func TestQuickExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 30 + rng.Intn(300)
		d := 1 + rng.Intn(4)
		pts := blobs(rng, n, d, 1+rng.Intn(4), 0.15+rng.Float64()*0.5, rng.Float64()*0.5)
		eps := 0.25 + rng.Float64()*0.8
		minPts := 2 + rng.Intn(7)
		want, _ := dbscan.Brute(pts, eps, minPts)
		got, _ := Run(pts, eps, minPts, Options{})
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickExactnessUnderAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := 30 + rng.Intn(200)
		pts := blobs(rng, n, 2, 1+rng.Intn(3), 0.2+rng.Float64()*0.4, rng.Float64()*0.4)
		eps := 0.3 + rng.Float64()*0.6
		minPts := 2 + rng.Intn(5)
		opts := Options{
			NoDeferral:  rng.Intn(2) == 0,
			DisableWndq: rng.Intn(2) == 0,
		}
		want, _ := dbscan.Brute(pts, eps, minPts)
		got, _ := Run(pts, eps, minPts, opts)
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAgreesWithAllBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := blobs(rng, 800, 3, 5, 0.25, 0.15)
	eps, minPts := 0.45, 5
	mu, _ := Run(pts, eps, minPts, Options{})
	rd, _ := dbscan.RDBSCAN(pts, eps, minPts)
	gd, _ := dbscan.GDBSCAN(pts, eps, minPts)
	grid, _, err := dbscan.GridDBSCAN(pts, eps, minPts, dbscan.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*clustering.Result{"R-DBSCAN": rd, "G-DBSCAN": gd, "GridDBSCAN": grid} {
		if err := clustering.Equivalent(mu, other); err != nil {
			t.Errorf("μDBSCAN vs %s: %v", name, err)
		}
	}
}

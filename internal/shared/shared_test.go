package shared

import (
	"math/rand"
	"reflect"
	"runtime"
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

// TestExactAcrossWorkerCounts is the seeded stress test: exactness checks at
// worker counts 1/2/4/GOMAXPROCS, intended to run under the race detector
// (the CI workflow gates on `go test -race ./internal/shared/`).
func TestExactAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := blobs(rng, 1000, 3, 4, 0.3, 0.2)
	eps, minPts := 0.45, 5
	want, _ := dbscan.Brute(pts, eps, minPts)
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		got, st := Run(pts, eps, minPts, Options{Workers: w})
		if err := got.Validate(); err != nil {
			t.Fatalf("w=%d invalid: %v", w, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("w=%d not brute force's result (%v)", w, clustering.Equivalent(want, got))
		}
		if st.Workers != w {
			t.Fatalf("Workers=%d want %d", st.Workers, w)
		}
		if st.Queries+st.QueriesSaved != len(pts) {
			t.Fatalf("w=%d queries %d + saved %d != n", w, st.Queries, st.QueriesSaved)
		}
	}
}

// TestManySmallRunsKeepEveryLink: a core-core edge lost to a stale flag read
// (or, once, to a per-worker store another worker's growth reallocated)
// shows up as a wrong cluster count on small inputs with many workers. Many
// independent small runs maximize the racy window.
func TestManySmallRunsKeepEveryLink(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eps, minPts := 0.5, 4
	for trial := 0; trial < 40; trial++ {
		pts := blobs(rng, 150+rng.Intn(250), 2, 3, 0.25, 0.3)
		want, _ := dbscan.Brute(pts, eps, minPts)
		got, _ := Run(pts, eps, minPts, Options{Workers: 16})
		if got.NumClusters != want.NumClusters {
			t.Fatalf("trial %d: %d clusters, brute found %d (core-core link lost?)",
				trial, got.NumClusters, want.NumClusters)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: not brute force's result (%v)", trial, clustering.Equivalent(want, got))
		}
	}
}

// TestStatsOneWorkerVsMany: the μR-tree, the step-1 core proofs and the
// accounting identities do not depend on the worker count; the counters that
// do (which dense ε/2-ball reaches a point before its own query does, and a
// point promoted while its query is in flight counts as queried) stay within
// the bounds those fix.
func TestStatsOneWorkerVsMany(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := blobs(rng, 4000, 3, 4, 0.2, 0.1)
	eps, minPts := 0.5, 5
	_, one := Run(pts, eps, minPts, Options{Workers: 1})
	if one.WndqFromMCs+one.WndqDynamic != one.QueriesSaved {
		t.Fatalf("one worker: wndq split %d+%d != %d saved queries",
			one.WndqFromMCs, one.WndqDynamic, one.QueriesSaved)
	}
	_, st := Run(pts, eps, minPts, Options{Workers: 4})
	if st.NumMCs != one.NumMCs {
		t.Fatalf("m=%d at 4 workers, %d at one", st.NumMCs, one.NumMCs)
	}
	if st.WndqFromMCs != one.WndqFromMCs {
		t.Fatalf("step 1's micro-cluster proofs found %d cores at 4 workers, %d at one",
			st.WndqFromMCs, one.WndqFromMCs)
	}
	if st.Queries+st.QueriesSaved != len(pts) || st.QueriesSaved < st.WndqFromMCs {
		t.Fatalf("queries=%d saved=%d at 4 workers (n=%d, %d cores need no query from step 1 on)",
			st.Queries, st.QueriesSaved, len(pts), st.WndqFromMCs)
	}
	if st.WndqFromMCs+st.WndqDynamic < st.QueriesSaved {
		t.Fatalf("wndq split %d+%d cannot cover %d saved queries",
			st.WndqFromMCs, st.WndqDynamic, st.QueriesSaved)
	}
	if st.DistCalcs == 0 {
		t.Fatal("DistCalcs not accumulated")
	}
	steps := st.Steps
	if steps.TreeConstruction <= 0 || steps.FindingReachable <= 0 ||
		steps.Clustering <= 0 || steps.PostProcessing <= 0 {
		t.Fatalf("incomplete phase split: %+v", steps)
	}
	if pct := st.QuerySavedPct(); pct <= 0 || pct > 100 {
		t.Fatalf("QuerySavedPct=%g out of range", pct)
	}
}

// TestWorkersDefaultToGOMAXPROCS is the one thing this package adds to
// core.Run.
func TestWorkersDefaultToGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := blobs(rng, 300, 2, 2, 0.3, 0.1)
	for _, w := range []int{0, -3} {
		if _, st := Run(pts, 0.5, 5, Options{Workers: w}); st.Workers != runtime.GOMAXPROCS(0) {
			t.Fatalf("Workers %d resolved to %d, want GOMAXPROCS=%d", w, st.Workers, runtime.GOMAXPROCS(0))
		}
	}
}

func TestRepeatedRunsStayExact(t *testing.T) {
	// Scheduling nondeterminism must never change the result.
	rng := rand.New(rand.NewSource(2))
	pts := blobs(rng, 800, 2, 3, 0.25, 0.25)
	eps, minPts := 0.5, 4
	want, _ := dbscan.Brute(pts, eps, minPts)
	for trial := 0; trial < 10; trial++ {
		got, _ := Run(pts, eps, minPts, Options{Workers: 8})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: not brute force's result (%v)", trial, clustering.Equivalent(want, got))
		}
	}
}

func TestSavesQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blobs(rng, 3000, 2, 3, 0.15, 0.05)
	_, st := Run(pts, 0.5, 5, Options{Workers: 4})
	if st.QueriesSaved == 0 {
		t.Fatal("dense blobs should save queries")
	}
	if st.NumMCs == 0 {
		t.Fatal("NumMCs not reported")
	}
}

func TestEmptyAndTiny(t *testing.T) {
	r, _ := Run(nil, 1, 5, Options{})
	if len(r.Labels) != 0 {
		t.Fatal("empty should give empty result")
	}
	r, _ = Run([]geom.Point{{1, 1}}, 1, 5, Options{Workers: 4})
	if r.Labels[0] != clustering.Noise {
		t.Fatal("single point must be noise")
	}
}

func TestQuickExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 50 + rng.Intn(300)
		d := 1 + rng.Intn(3)
		pts := blobs(rng, n, d, 1+rng.Intn(3), 0.2+rng.Float64()*0.4, rng.Float64()*0.4)
		eps := 0.3 + rng.Float64()*0.6
		minPts := 2 + rng.Intn(5)
		want, _ := dbscan.Brute(pts, eps, minPts)
		got, _ := Run(pts, eps, minPts, Options{Workers: 1 + rng.Intn(8)})
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

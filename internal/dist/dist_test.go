package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

type distAlgo func(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error)

// requireDistExact holds algo to brute force through bruteError.
func requireDistExact(t *testing.T, name string, algo distAlgo, brute bool, pts []geom.Point, eps float64, minPts, p int) *Stats {
	t.Helper()
	want, _ := dbscan.Brute(pts, eps, minPts)
	got, st, err := algo(pts, eps, minPts, p, Options{Seed: 7})
	if err != nil {
		t.Fatalf("%s p=%d: %v", name, p, err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s p=%d invalid: %v", name, p, err)
	}
	if err := bruteError(pts, eps, want, got, brute); err != nil {
		t.Fatalf("%s p=%d not exact: %v", name, p, err)
	}
	return st
}

// bruteError holds got to want, brute force's result on pts: byte for byte
// when brute is set (the algorithm gives each border its smallest-id core
// neighbor, as Brute does); otherwise the same clustering up to border ties,
// with every border labelled with a cluster that has a core strictly within
// eps of it (a baseline's border goes to the first core to claim it).
func bruteError(pts []geom.Point, eps float64, want, got *clustering.Result, brute bool) error {
	if err := clustering.Equivalent(want, got); err != nil {
		return err
	}
	if brute {
		if !reflect.DeepEqual(want, got) {
			return errors.New("border labels differ from brute force")
		}
		return nil
	}
	cores := make([][]int, got.NumClusters)
	for i, c := range got.Core {
		if c {
			cores[got.Labels[i]] = append(cores[got.Labels[i]], i)
		}
	}
	for i, l := range got.Labels {
		if got.Core[i] || l == clustering.Noise {
			continue
		}
		if !slices.ContainsFunc(cores[l], func(c int) bool { return geom.Within(pts[i], pts[c], eps) }) {
			return fmt.Errorf("border %d has no core of cluster %d within eps", i, l)
		}
	}
	return nil
}

func TestMuDBSCANDExactAcrossRankCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := blobs(rng, 900, 3, 4, 0.3, 0.2)
	for _, p := range []int{1, 2, 4, 8} {
		st := requireDistExact(t, "μDBSCAN-D", MuDBSCAND, true, pts, 0.45, 5, p)
		if p > 1 && st.HaloPoints == 0 {
			t.Fatalf("p=%d expected halo traffic", p)
		}
	}
}

func TestPDSDBSCANDExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blobs(rng, 700, 2, 3, 0.3, 0.2)
	for _, p := range []int{1, 4} {
		st := requireDistExact(t, "PDSDBSCAN-D", PDSDBSCAND, false, pts, 0.5, 5, p)
		if st.QueriesSaved != 0 {
			t.Fatal("PDSDBSCAN-D must not save queries")
		}
		if st.Queries != int64(len(pts)) {
			t.Fatalf("PDSDBSCAN-D queries=%d want %d", st.Queries, len(pts))
		}
	}
}

func TestGridDBSCANDExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blobs(rng, 700, 2, 3, 0.25, 0.2)
	for _, p := range []int{1, 4} {
		st := requireDistExact(t, "GridDBSCAN-D", GridDBSCAND, false, pts, 0.5, 4, p)
		if st.QueriesSaved == 0 {
			t.Fatal("GridDBSCAN-D should save some queries on dense blobs")
		}
	}
}

func TestHPDBSCANExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := blobs(rng, 600, 3, 3, 0.3, 0.2)
	for _, p := range []int{1, 4} {
		st := requireDistExact(t, "HPDBSCAN", HPDBSCAN, false, pts, 0.5, 5, p)
		if st.QueriesSaved != 0 {
			t.Fatal("HPDBSCAN does not reduce the number of queries")
		}
	}
}

func TestMuDBSCANDMatchesSequentialStats(t *testing.T) {
	// p=1 must behave exactly like sequential μDBSCAN including savings.
	rng := rand.New(rand.NewSource(5))
	pts := blobs(rng, 1500, 2, 3, 0.2, 0.1)
	_, st, err := MuDBSCAND(pts, 0.5, 5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.QuerySavedPct() < 30 {
		t.Fatalf("p=1 saved only %.1f%%", st.QuerySavedPct())
	}
	if st.NumMCs == 0 {
		t.Fatal("NumMCs not aggregated")
	}
	if st.HaloPoints != 0 || st.Comm.TotalBytes() == 0 {
		// p=1 has no halos; collectives still account bytes=0 since size-1=0.
		if st.HaloPoints != 0 {
			t.Fatalf("p=1 halo points = %d", st.HaloPoints)
		}
	}
}

func TestGridBaselinesRejectHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := blobs(rng, 200, 14, 2, 0.5, 0.1)
	if _, _, err := GridDBSCAND(pts, 2.0, 5, 2, Options{}); err != ErrDistGridMemory {
		t.Fatalf("GridDBSCAN-D d=14: err=%v", err)
	}
	if _, _, err := HPDBSCAN(pts, 2.0, 5, 2, Options{}); err != ErrDistGridMemory {
		t.Fatalf("HPDBSCAN d=14: err=%v", err)
	}
	// μDBSCAN-D handles the same dataset fine.
	if _, _, err := MuDBSCAND(pts, 2.0, 5, 2, Options{}); err != nil {
		t.Fatalf("μDBSCAN-D d=14: %v", err)
	}
}

func TestNonPowerOfTwoRanksError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := blobs(rng, 100, 2, 2, 0.3, 0.1)
	if _, _, err := MuDBSCAND(pts, 0.5, 5, 3, Options{}); err == nil {
		t.Fatal("expected power-of-two error")
	}
}

func TestEmptyDataset(t *testing.T) {
	r, st, err := MuDBSCAND(nil, 1, 5, 4, Options{})
	if err != nil || len(r.Labels) != 0 || st.Ranks != 4 {
		t.Fatalf("empty: %v %v %v", r, st, err)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := blobs(rng, 2000, 3, 4, 0.3, 0.1)
	_, st, err := MuDBSCAND(pts, 0.5, 5, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ph := st.Phases
	if ph.TreeConstruction <= 0 || ph.Clustering <= 0 || ph.Merge <= 0 {
		t.Fatalf("phases not populated: %+v", ph)
	}
	if ph.Total() <= 0 {
		t.Fatal("Total() should be positive")
	}
}

func TestSampledMedianStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := blobs(rng, 1200, 3, 4, 0.3, 0.2)
	want, _ := dbscan.Brute(pts, 0.5, 5)
	got, _, err := MuDBSCAND(pts, 0.5, 5, 8, Options{SampleSize: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sampled medians broke exactness (%v)", clustering.Equivalent(want, got))
	}
}

func TestRPDBSCANApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Two well-separated dense blobs, no noise: even an approximate
	// algorithm must find exactly two clusters.
	pts := make([]geom.Point, 0, 400)
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{50 + rng.NormFloat64()*0.3, 50 + rng.NormFloat64()*0.3})
	}
	r, st, err := RPDBSCAN(pts, 0.5, 5, 4, 0.99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters != 2 {
		t.Fatalf("RP-DBSCAN clusters=%d want 2", r.NumClusters)
	}
	if r.Labels[0] == r.Labels[200] {
		t.Fatal("separated blobs merged")
	}
	if st.Comm.TotalBytes() == 0 {
		t.Fatal("RP-DBSCAN should exchange cell dictionaries")
	}
}

func TestQuickDistributedExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 50 + rng.Intn(250)
		d := 1 + rng.Intn(3)
		pts := blobs(rng, n, d, 1+rng.Intn(3), 0.2+rng.Float64()*0.4, rng.Float64()*0.4)
		eps := 0.3 + rng.Float64()*0.6
		minPts := 2 + rng.Intn(5)
		p := []int{1, 2, 4, 8}[rng.Intn(4)]
		want, _ := dbscan.Brute(pts, eps, minPts)
		got, _, err := MuDBSCAND(pts, eps, minPts, p, Options{Seed: int64(n)})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDistributedAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := blobs(rng, 600, 2, 4, 0.3, 0.2)
	eps, minPts, p := 0.5, 5, 4
	mu, _, err := MuDBSCAND(pts, eps, minPts, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pds, _, err := PDSDBSCAND(pts, eps, minPts, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid, _, err := GridDBSCAND(pts, eps, minPts, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hp, _, err := HPDBSCAN(pts, eps, minPts, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*clustering.Result{"PDSDBSCAN-D": pds, "GridDBSCAN-D": grid, "HPDBSCAN": hp} {
		if err := clustering.Equivalent(mu, other); err != nil {
			t.Errorf("μDBSCAN-D vs %s: %v", name, err)
		}
	}
}

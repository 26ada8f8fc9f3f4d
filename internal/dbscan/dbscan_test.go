package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// blobs generates k Gaussian blobs plus uniform noise — small analogues of
// the clustered workloads DBSCAN is evaluated on.
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

func requireExact(t *testing.T, name string, pts []geom.Point, eps float64, minPts int,
	got *clustering.Result, want *clustering.Result) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid result: %v", name, err)
	}
	if err := clustering.Equivalent(want, got); err != nil {
		t.Fatalf("%s: not exact: %v", name, err)
	}
	if err := borderError(pts, eps, got, name != "GridDBSCAN"); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// borderError checks r's non-core points against their core neighbors
// strictly within eps: one with none must be noise, and one with some must
// carry the label of the smallest-id one — Brute's rule, which every exact
// engine of the repository follows — or, when smallest is false, of any one.
// O(n²); for tests.
func borderError(pts []geom.Point, eps float64, r *clustering.Result, smallest bool) error {
	for i := range pts {
		if r.Core[i] {
			continue
		}
		first, ok := clustering.Noise, false
		for c := range pts {
			if !r.Core[c] || !geom.Within(pts[i], pts[c], eps) {
				continue
			}
			if first == clustering.Noise {
				first = r.Labels[c]
			}
			ok = ok || r.Labels[i] == r.Labels[c]
		}
		switch {
		case first == clustering.Noise && r.Labels[i] != clustering.Noise:
			return fmt.Errorf("point %d has no core neighbor and is labeled %d", i, r.Labels[i])
		case first != clustering.Noise && (!ok || smallest && r.Labels[i] != first):
			return fmt.Errorf("border %d labeled %d, its smallest-id core neighbor's label is %d", i, r.Labels[i], first)
		}
	}
	return nil
}

// TestBordersGoToSmallestIDCore states the reference rule on every
// conformance dataset and scenario: in Brute and in the sequential baselines
// that query every point, each border joins its smallest-id core neighbor's
// cluster. GridDBSCAN is the exception: its dense-cell cores are marked
// before any query, and a border queried before its smallest-id core neighbor
// joins the first core its own query lists (border-tie-1d has one).
func TestBordersGoToSmallestIDCore(t *testing.T) {
	algos := []struct {
		name string
		run  func([]geom.Point, float64, int) (*clustering.Result, Stats)
	}{{"Brute", Brute}, {"RDBSCAN", RDBSCAN}, {"KDBSCAN", KDBSCAN}, {"GDBSCAN", GDBSCAN}}
	cases := data.ConformanceCases()
	for _, s := range data.Scenarios() {
		cases = append(cases, data.ConformanceCase{Name: s.Name, Pts: s.Pts, Eps: s.Eps, MinPts: s.MinPts})
	}
	for _, c := range cases {
		for _, a := range algos {
			t.Run(c.Name+"/"+a.name, func(t *testing.T) {
				got, _ := a.run(c.Pts, c.Eps, c.MinPts)
				if err := borderError(c.Pts, c.Eps, got, true); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBruteBasicShapes(t *testing.T) {
	// Two well-separated pairs of dense blobs and one isolated point.
	pts := []geom.Point{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, // cluster A
		{5, 5}, {5.1, 5}, {5, 5.1}, {5.1, 5.1}, // cluster B
		{10, 10}, // noise
	}
	r, st := Brute(pts, 0.5, 3)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters=%d want 2", r.NumClusters)
	}
	if r.Labels[8] != clustering.Noise {
		t.Fatal("isolated point should be noise")
	}
	if r.Labels[0] == r.Labels[4] {
		t.Fatal("separated blobs must be distinct clusters")
	}
	if st.Queries != len(pts) {
		t.Fatalf("Brute must query every point, got %d", st.Queries)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBorderPointSharedBetweenClusters(t *testing.T) {
	// A classic bridge: border point between two cores that are themselves
	// farther than eps apart.
	pts := []geom.Point{
		{0}, {0.5}, {-0.5}, {-0.2}, // cluster A (0.5 is core)
		{2.1}, {2.4}, {2.6}, {2.9}, // cluster B (2.1 is core)
		{1.2}, // bridge: only 2 neighbors + itself => border of both
	}
	r, _ := Brute(pts, 1.0, 4)
	if r.Core[8] {
		t.Fatal("bridge point must not be core")
	}
	if r.Labels[8] == clustering.Noise {
		t.Fatal("bridge point must be a border, not noise")
	}
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters=%d want 2", r.NumClusters)
	}
}

func TestAllAlgorithmsExactOnBlobs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + int(seed)%3
		pts := blobs(rng, 600, d, 4, 0.3, 0.15)
		eps, minPts := 0.4, 5
		want, _ := Brute(pts, eps, minPts)

		got, _ := RDBSCAN(pts, eps, minPts)
		requireExact(t, "RDBSCAN", pts, eps, minPts, got, want)

		got, _ = GDBSCAN(pts, eps, minPts)
		requireExact(t, "GDBSCAN", pts, eps, minPts, got, want)

		got, _ = KDBSCAN(pts, eps, minPts)
		requireExact(t, "KDBSCAN", pts, eps, minPts, got, want)

		got, _, err := GridDBSCAN(pts, eps, minPts, GridOptions{})
		if err != nil {
			t.Fatalf("GridDBSCAN: %v", err)
		}
		requireExact(t, "GridDBSCAN", pts, eps, minPts, got, want)
	}
}

// TestSequentialBaselinesConformance holds the four indexed sequential
// baselines to Brute on every conformance dataset — the grid-adversarial
// lattices and exact-ε border ties among them: identical core flags and an
// equivalent clustering whose borders follow Brute's rule (GridDBSCAN's
// only need a core neighbor in their cluster).
func TestSequentialBaselinesConformance(t *testing.T) {
	grid := func(pts []geom.Point, eps float64, minPts int) (*clustering.Result, Stats) {
		r, st, err := GridDBSCAN(pts, eps, minPts, GridOptions{})
		if err != nil {
			t.Fatalf("GridDBSCAN: %v", err)
		}
		return r, st
	}
	algos := []struct {
		name string
		run  func([]geom.Point, float64, int) (*clustering.Result, Stats)
	}{{"RDBSCAN", RDBSCAN}, {"KDBSCAN", KDBSCAN}, {"GDBSCAN", GDBSCAN}, {"GridDBSCAN", grid}}
	for _, c := range data.ConformanceCases() {
		want, _ := Brute(c.Pts, c.Eps, c.MinPts)
		for _, a := range algos {
			t.Run(c.Name+"/"+a.name, func(t *testing.T) {
				got, _ := a.run(c.Pts, c.Eps, c.MinPts)
				requireExact(t, a.name, c.Pts, c.Eps, c.MinPts, got, want)
				if !reflect.DeepEqual(got.Core, want.Core) {
					t.Fatal("core flags differ from Brute")
				}
			})
		}
	}
}

func TestGridDBSCANSavesQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := blobs(rng, 2000, 2, 3, 0.2, 0.05)
	_, st, err := GridDBSCAN(pts, 0.5, 4, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.QueriesSaved == 0 {
		t.Fatal("dense 2D blobs should produce dense cells and saved queries")
	}
	if st.Queries+st.QueriesSaved != len(pts) {
		t.Fatalf("queries %d + saved %d != n %d", st.Queries, st.QueriesSaved, len(pts))
	}
	if st.QuerySavedPct() <= 0 {
		t.Fatal("QuerySavedPct should be positive")
	}
}

func TestGridDBSCANHighDimMemoryError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := blobs(rng, 300, 14, 2, 1.0, 0.1)
	_, _, err := GridDBSCAN(pts, 2.0, 5, GridOptions{MaxNeighborEnum: 1000, MaxCellPairs: 100})
	if err != ErrGridMemory {
		t.Fatalf("expected ErrGridMemory, got %v", err)
	}
}

func TestGridDBSCANHighDimFallbackPath(t *testing.T) {
	// Force the pairwise neighbor-list path with a tiny enum budget but a
	// generous pair budget, and verify exactness is preserved.
	rng := rand.New(rand.NewSource(11))
	pts := blobs(rng, 300, 5, 3, 0.3, 0.1)
	eps, minPts := 0.8, 4
	want, _ := Brute(pts, eps, minPts)
	got, _, err := GridDBSCAN(pts, eps, minPts, GridOptions{MaxNeighborEnum: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "GridDBSCAN-fallback", pts, eps, minPts, got, want)
}

func TestEmptyInputs(t *testing.T) {
	if r, _ := Brute(nil, 1, 3); len(r.Labels) != 0 {
		t.Fatal("Brute on empty")
	}
	if r, _ := RDBSCAN(nil, 1, 3); len(r.Labels) != 0 {
		t.Fatal("RDBSCAN on empty")
	}
	if r, _ := GDBSCAN(nil, 1, 3); len(r.Labels) != 0 {
		t.Fatal("GDBSCAN on empty")
	}
	if r, _, err := GridDBSCAN(nil, 1, 3, GridOptions{}); err != nil || len(r.Labels) != 0 {
		t.Fatal("GridDBSCAN on empty")
	}
}

func TestSinglePointIsNoise(t *testing.T) {
	r, _ := Brute([]geom.Point{{1, 1}}, 1, 2)
	if r.Labels[0] != clustering.Noise || r.NumClusters != 0 {
		t.Fatal("lonely point must be noise")
	}
}

func TestMinPtsOne(t *testing.T) {
	// With MinPts=1 every point is core; clusters are ε-connected components.
	pts := []geom.Point{{0}, {0.5}, {3}}
	want, _ := Brute(pts, 1, 1)
	if want.NumClusters != 2 || want.NumNoise() != 0 {
		t.Fatalf("brute minPts=1: clusters=%d noise=%d", want.NumClusters, want.NumNoise())
	}
	got, _, err := GridDBSCAN(pts, 1, 1, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "GridDBSCAN-minpts1", pts, 1, 1, got, want)
}

// Property: all exact baselines agree with brute force over random
// parameters and mixtures.
func TestQuickAllExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 30 + rng.Intn(250)
		d := 1 + rng.Intn(3)
		pts := blobs(rng, n, d, 1+rng.Intn(4), 0.2+rng.Float64()*0.5, rng.Float64()*0.4)
		eps := 0.3 + rng.Float64()*0.7
		minPts := 2 + rng.Intn(6)
		want, _ := Brute(pts, eps, minPts)
		if err := want.Validate(); err != nil {
			return false
		}
		if got, _ := RDBSCAN(pts, eps, minPts); clustering.Equivalent(want, got) != nil {
			return false
		}
		if got, _ := GDBSCAN(pts, eps, minPts); clustering.Equivalent(want, got) != nil {
			return false
		}
		if got, _ := KDBSCAN(pts, eps, minPts); clustering.Equivalent(want, got) != nil {
			return false
		}
		got, _, err := GridDBSCAN(pts, eps, minPts, GridOptions{})
		if err != nil || clustering.Equivalent(want, got) != nil {
			return false
		}
		return borderError(pts, eps, got, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGridStructure(t *testing.T) {
	pts := []geom.Point{{0.1, 0.1}, {0.2, 0.2}, {5, 5}, {-1, -1}}
	g := BuildGrid(pts, 1.0)
	if g.NumCells() != 3 {
		t.Fatalf("NumCells=%d want 3", g.NumCells())
	}
	// Every point is in its cell, and key/Unkey round-trip, including
	// negatives.
	for i, p := range pts {
		c := g.coordsOf(p)
		if g.Keys[g.Cell[i]] != g.key(c) {
			t.Fatalf("point %d in cell %v, want %v", i, g.Unkey(g.Keys[g.Cell[i]]), c)
		}
		got := g.Unkey(g.key(c))
		for i := range c {
			if got[i] != c[i] {
				t.Fatalf("Unkey(key(%v))=%v", c, got)
			}
		}
	}
	// Neighbor visit covers the occupied neighbors.
	var visited int
	g.VisitNeighborCells(g.Cell[0], 2, func(members []int32) {
		visited += len(members)
	})
	if visited != 3 { // the two origin-cell points and {-1,-1}
		t.Fatalf("visited %d members, want 3", visited)
	}
}

func TestChebyshevWithin(t *testing.T) {
	if !ChebyshevWithin([]int32{0, 0}, []int32{2, -2}, 2) {
		t.Fatal("within 2")
	}
	if ChebyshevWithin([]int32{0, 0}, []int32{3, 0}, 2) {
		t.Fatal("not within 2")
	}
}

func TestNeighborEnumCountSaturates(t *testing.T) {
	if NeighborEnumCount(4, 40) < 1<<50 {
		t.Fatal("40-dim enumeration should saturate huge")
	}
}

// TestUnionFindHalo: points from localCount on are halo copies — never
// queried, never claimed — a core's link to a non-core copy is a deferred
// pair, and only a noise point with a copy in reach keeps its neighborhood.
// With localCount == n (a sequential run) nothing is deferred or kept.
func TestUnionFindHalo(t *testing.T) {
	// Owned 0…3 at 0, 1, 2, 10; copies 4, 5 at 3, 10.5. ε 1.5, MinPts 3.
	pts := []geom.Point{{0}, {1}, {2}, {10}, {3}, {10.5}}
	run := func(localCount int) (HaloResult, []bool, *unionfind.UF, []int) {
		uf := unionfind.New(len(pts))
		core := make([]bool, len(pts))
		var queried []int
		h := UnionFind(uf, localCount, 3, core, nil, func(i int) []int {
			queried = append(queried, i)
			var nbhd []int
			for j, q := range pts {
				if geom.DistSq(pts[i], q) < 1.5*1.5 {
					nbhd = append(nbhd, j)
				}
			}
			return nbhd
		})
		return h, core, uf, queried
	}

	h, core, uf, queried := run(4)
	if !reflect.DeepEqual(queried, []int{0, 1, 2, 3}) || h.Queries != 4 {
		t.Fatalf("queried %v (%d queries), want the four owned points", queried, h.Queries)
	}
	if !reflect.DeepEqual(core, []bool{false, true, true, false, false, false}) {
		t.Fatalf("core %v", core)
	}
	if !uf.Same(0, 1) || !uf.Same(1, 2) || uf.Same(2, 4) {
		t.Fatal("border 0 must be claimed and copy 4 left to the merge")
	}
	if !reflect.DeepEqual(h.Pairs, [][2]int32{{2, 4}}) {
		t.Fatalf("pairs %v, want [[2 4]]", h.Pairs)
	}
	if !reflect.DeepEqual(h.NoiseNbhd, map[int32][]int32{3: {3, 5}}) {
		t.Fatalf("noise neighborhoods %v, want only point 3's", h.NoiseNbhd)
	}

	h, _, _, queried = run(len(pts))
	if len(queried) != len(pts) || h.Pairs != nil || h.NoiseNbhd != nil {
		t.Fatalf("sequential run: %d queries, pairs %v, noise %v", len(queried), h.Pairs, h.NoiseNbhd)
	}
}

// TestUnionFindDropsClaimedNoise: a point that stores its neighborhood for
// want of a core neighbor, with a halo copy in reach, and is claimed by a
// later core's query is a border of that core's cluster, not provisional
// noise: the merge must not see it in NoiseNbhd.
func TestUnionFindDropsClaimedNoise(t *testing.T) {
	// Owned 0…3 at 0, 1, 2, 1.5; copy 4 at −1. ε 1.5, MinPts 4: point 0's
	// query finds 1 and the copy and no core; point 1's finds four.
	pts := []geom.Point{{0}, {1}, {2}, {1.5}, {-1}}
	uf := unionfind.New(len(pts))
	core := make([]bool, len(pts))
	h := UnionFind(uf, 4, 4, core, nil, func(i int) []int {
		var nbhd []int
		for j, q := range pts {
			if geom.DistSq(pts[i], q) < 1.5*1.5 {
				nbhd = append(nbhd, j)
			}
		}
		return nbhd
	})
	if !reflect.DeepEqual(core, []bool{false, true, false, false, false}) || !uf.Same(0, 1) {
		t.Fatalf("core %v; point 0 must be claimed by 1", core)
	}
	if len(h.NoiseNbhd) != 0 || h.Pairs != nil {
		t.Fatalf("noise neighborhoods %v, pairs %v; want none", h.NoiseNbhd, h.Pairs)
	}
}

package mc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"mudbscan/internal/geom"
)

func randPoints(rng *rand.Rand, n, d int, scale float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * scale
		}
		pts[i] = p
	}
	return pts
}

func bruteNbhd(pts []geom.Point, q geom.Point, eps float64) []int {
	var out []int
	for i, p := range pts {
		if geom.Within(q, p, eps) {
			out = append(out, i)
		}
	}
	return out
}

// mcView is one micro-cluster read out through the Index's accessors.
type mcView struct {
	ID, CenterID   int
	Center         geom.Point
	Members, Reach []int32
}

func (m mcView) Size() int { return len(m.Members) }

func views(ix *Index) []mcView {
	vs := make([]mcView, ix.NumMCs())
	for k := range vs {
		vs[k] = mcView{k, ix.CenterID(k), ix.Center(k), ix.Members(k), ix.Reach(k)}
	}
	return vs
}

func buildRandom(t *testing.T, seed int64, n, d int, eps float64, minPts int) ([]geom.Point, *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := randPoints(rng, n, d, 10)
	return pts, Build(pts, eps, minPts, Options{})
}

func TestEveryPointInExactlyOneMC(t *testing.T) {
	pts, ix := buildRandom(t, 1, 500, 3, 0.8, 5)
	seen := make([]int, len(pts))
	for _, m := range views(ix) {
		if m.Members[0] != int32(m.CenterID) {
			t.Fatalf("MC %d: Members[0]=%d != center %d", m.ID, m.Members[0], m.CenterID)
		}
		for _, id := range m.Members {
			seen[id]++
			if ix.PointMC[id] != int32(m.ID) {
				t.Fatalf("PointMC[%d]=%d but found in MC %d", id, ix.PointMC[id], m.ID)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears in %d MCs", i, c)
		}
	}
}

func TestMembersWithinEpsOfCenter(t *testing.T) {
	pts, ix := buildRandom(t, 2, 600, 2, 0.5, 5)
	for _, m := range views(ix) {
		for _, id := range m.Members {
			if int(id) == m.CenterID {
				continue
			}
			if !geom.Within(pts[id], m.Center, ix.Eps) {
				t.Fatalf("member %d at dist %g >= eps %g from center of MC %d",
					id, geom.Dist(pts[id], m.Center), ix.Eps, m.ID)
			}
		}
	}
}

// CenterDist is every point's distance to its own centre, the root of the
// kernel value: what step 4's triangle-inequality bounds are built from.
func TestCenterDist(t *testing.T) {
	pts, ix := buildRandom(t, 2, 600, 5, 1.2, 5)
	if len(ix.CenterDist) != len(pts) {
		t.Fatalf("%d distances for %d points", len(ix.CenterDist), len(pts))
	}
	for _, m := range views(ix) {
		for _, id := range m.Members {
			want := math.Sqrt(geom.DistSq(pts[id], m.Center))
			if ix.CenterDist[id] != want || want >= ix.Eps {
				t.Fatalf("point %d of MC %d: CenterDist %v, want %v (< ε)", id, m.ID, ix.CenterDist[id], want)
			}
		}
		if ix.CenterDist[m.CenterID] != 0 {
			t.Fatalf("centre of MC %d is %v from itself", m.ID, ix.CenterDist[m.CenterID])
		}
	}
}

func TestCentersPairwiseSeparated(t *testing.T) {
	pts, ix := buildRandom(t, 3, 700, 3, 0.6, 5)
	_ = pts
	for i, a := range views(ix) {
		for _, b := range views(ix)[i+1:] {
			if geom.Within(a.Center, b.Center, ix.Eps) {
				t.Fatalf("centers of MC %d and %d are strictly within eps", a.ID, b.ID)
			}
		}
	}
}

func TestReachabilitySymmetricAndReflexive(t *testing.T) {
	pts, ix := buildRandom(t, 6, 500, 3, 0.7, 5)
	_ = pts
	reach := make([]map[int32]bool, ix.NumMCs())
	for i, m := range views(ix) {
		reach[i] = make(map[int32]bool, len(m.Reach))
		for _, r := range m.Reach {
			reach[i][r] = true
		}
		if !reach[i][int32(i)] {
			t.Fatalf("MC %d not reachable from itself", i)
		}
	}
	for i, m := range views(ix) {
		for _, r := range m.Reach {
			if !reach[r][int32(i)] {
				t.Fatalf("reachability not symmetric between %d and %d", i, r)
			}
		}
	}
	// Verify against brute force on centers (closed 3ε).
	r := 3 * ix.Eps
	for i, a := range views(ix) {
		for j, b := range views(ix) {
			want := geom.DistSq(a.Center, b.Center) <= r*r
			if reach[i][int32(j)] != want {
				t.Fatalf("reach(%d,%d)=%v want %v", i, j, reach[i][int32(j)], want)
			}
		}
	}
}

func TestEpsNeighborhoodMatchesBrute(t *testing.T) {
	pts, ix := buildRandom(t, 7, 800, 3, 0.8, 5)
	for trial := 0; trial < 100; trial++ {
		id := trial * 7 % len(pts)
		want := bruteNbhd(pts, pts[id], ix.Eps)
		got, _, _ := ix.EpsNeighborhoodInto(pts[id], id, nil)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("point %d: got %d neighbors want %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("point %d: neighbor mismatch", id)
			}
		}
	}
}

func TestNoDeferralProducesMoreMCs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 2000, 2, 10)
	withDef := Build(pts, 0.5, 5, Options{})
	noDef := Build(pts, 0.5, 5, Options{NoDeferral: true})
	if noDef.NumMCs() < withDef.NumMCs() {
		t.Fatalf("NoDeferral m=%d < deferral m=%d; 2ε rule should limit MCs",
			noDef.NumMCs(), withDef.NumMCs())
	}
}

func TestBuildValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"zero eps", func() { Build([]geom.Point{{0, 0}}, 0, 5, Options{}) }},
		{"zero minPts", func() { Build([]geom.Point{{0, 0}}, 1, 0, Options{}) }},
		{"empty", func() { Build(nil, 1, 5, Options{}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestSinglePoint(t *testing.T) {
	ix := Build([]geom.Point{{1, 2}}, 0.5, 3, Options{})
	if ix.NumMCs() != 1 || len(ix.Members(0)) != 1 {
		t.Fatalf("single point index wrong: m=%d", ix.NumMCs())
	}
}

// Property: MC construction invariants hold for arbitrary seeds/parameters,
// and ε-neighborhood queries through the μR-tree equal brute force.
func TestQuickInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func() bool {
		n := 20 + rng.Intn(300)
		d := 1 + rng.Intn(3)
		eps := 0.2 + rng.Float64()*1.5
		minPts := 2 + rng.Intn(6)
		pts := randPoints(rng, n, d, 8)
		ix := Build(pts, eps, minPts, Options{})
		count := 0
		for _, m := range views(ix) {
			count += m.Size()
			for _, id := range m.Members {
				if int(id) != m.CenterID && !geom.Within(pts[id], m.Center, eps) {
					return false
				}
			}
		}
		if count != n {
			return false
		}
		id := rng.Intn(n)
		want := bruteNbhd(pts, pts[id], eps)
		got, _, _ := ix.EpsNeighborhoodInto(pts[id], id, nil)
		sort.Ints(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sameBytes holds two indexes to byte-equality: the scan's outcome, the
// record slab, the two list arenas, the four slices of the forest, and the
// centre grid's centres, chains and slots.
func sameBytes(got, want *Index) error {
	g, w := got.dir.(*gridDirectory), want.dir.(*gridDirectory)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"PointMC", got.PointMC, want.PointMC},
		{"Points", got.Points.Data(), want.Points.Data()},
		{"CenterDist", got.CenterDist, want.CenterDist},
		{"records (centres, list starts, roots)", got.mcs, want.mcs},
		{"members", got.members, want.members},
		{"Reach", got.reach, want.reach},
		{"aux forest", got.aux, want.aux},
		{"grid centres", g.centers.Data(), w.centers.Data()},
		{"grid chains", g.chain, w.chain},
		{"grid slots", g.slots, w.slots},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s differ", f.name)
		}
	}
	return nil
}

// TestIndexIdenticalAcrossWorkers: Options.Workers decides who packs which
// tree and who fills which list, never where anything goes, so the index is
// the same bytes at every worker count.
func TestIndexIdenticalAcrossWorkers(t *testing.T) {
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}{
		{"3-d, many small MCs", randPoints(rand.New(rand.NewSource(11)), 3000, 3, 10), 0.6, 5},
		{"2-d, fat MCs with deep trees", randPoints(rand.New(rand.NewSource(12)), 4000, 2, 10), 2.5, 5},
		{"6-d, chains past the keyed axes", randPoints(rand.New(rand.NewSource(13)), 1500, 6, 4), 1.5, 4},
	} {
		want := Build(c.pts, c.eps, c.minPts, Options{})
		if want.NumMCs() < 2 || len(want.reach) == 0 {
			t.Fatalf("%s: degenerate index (m=%d)", c.name, want.NumMCs())
		}
		for _, workers := range []int{2, 4, 8} {
			if err := sameBytes(Build(c.pts, c.eps, c.minPts, Options{Workers: workers}), want); err != nil {
				t.Fatalf("%s, workers=%d: %v", c.name, workers, err)
			}
		}
	}
}

// TestBuildAllocsIndependentOfM: an index is arenas, not objects. On an
// all-singleton set — every point its own micro-cluster, the shape that used
// to cost ten allocations a point — Build's mallocs stay under a constant
// (the amortised growth of the scan's slices and of the directory, the
// arenas, and carve's at most 64 block copies of the reachable lists), and
// what is left alive afterwards is a few dozen objects whatever m is.
func TestBuildAllocsIndependentOfM(t *testing.T) {
	const n = 20000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{float64(i%200) * 10, float64(i/200) * 10}
	}
	var ix *Index
	mallocs := testing.AllocsPerRun(1, func() { ix = Build(pts, 1, 5, Options{}) })
	if ix.NumMCs() != n {
		t.Fatalf("m=%d, want every point a micro-cluster (%d)", ix.NumMCs(), n)
	}
	if mallocs > 400 {
		t.Errorf("Build made %.0f allocations for m=%d; want a constant (≤ 400)", mallocs, n)
	}

	var before, after runtime.MemStats
	ix = nil
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix = Build(pts, 1, 5, Options{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapObjects) - int64(before.HeapObjects); live > 64 {
		t.Errorf("a built index keeps %d heap objects alive for m=%d; want ≤ 64", live, n)
	}
	runtime.KeepAlive(ix)
}

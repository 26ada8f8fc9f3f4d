package mc

import (
	"math"
	"math/rand"
	"reflect"
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

func buildRandom(t *testing.T, seed int64, n, d int, eps float64, minPts int) ([]geom.Point, *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := randPoints(rng, n, d, 10)
	return pts, Build(pts, eps, minPts, Options{})
}

func TestEveryPointInExactlyOneMC(t *testing.T) {
	pts, ix := buildRandom(t, 1, 500, 3, 0.8, 5)
	seen := make([]int, len(pts))
	for _, m := range ix.MCs {
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
	for _, m := range ix.MCs {
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
	for _, m := range ix.MCs {
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
	for i, a := range ix.MCs {
		for _, b := range ix.MCs[i+1:] {
			if geom.Within(a.Center, b.Center, ix.Eps) {
				t.Fatalf("centers of MC %d and %d are strictly within eps", a.ID, b.ID)
			}
		}
	}
}

func TestInnerCircle(t *testing.T) {
	pts, ix := buildRandom(t, 4, 800, 2, 1.0, 4)
	for _, m := range ix.MCs {
		inner := make(map[int32]bool, len(m.InnerIDs))
		for _, id := range m.InnerIDs {
			inner[id] = true
			if int(id) == m.CenterID {
				t.Fatal("center must not be in its own inner circle")
			}
			if !geom.Within(pts[id], m.Center, ix.Eps/2) {
				t.Fatalf("inner point %d at dist %g >= eps/2", id, geom.Dist(pts[id], m.Center))
			}
		}
		for _, id := range m.Members {
			if int(id) != m.CenterID && geom.Within(pts[id], m.Center, ix.Eps/2) && !inner[id] {
				t.Fatalf("point %d within eps/2 missing from InnerIDs", id)
			}
		}
	}
}

func TestKinds(t *testing.T) {
	pts, ix := buildRandom(t, 5, 900, 2, 0.9, 5)
	_ = pts
	var sawDMC, sawSMC bool
	for _, m := range ix.MCs {
		switch m.Kind {
		case DMC:
			sawDMC = true
			if len(m.InnerIDs) < ix.MinPts {
				t.Fatalf("DMC with |IC|=%d < MinPts", len(m.InnerIDs))
			}
		case CMC:
			if m.Size() < ix.MinPts {
				t.Fatalf("CMC with size %d < MinPts", m.Size())
			}
			if len(m.InnerIDs) >= ix.MinPts {
				t.Fatal("CMC should have been DMC")
			}
		case SMC:
			sawSMC = true
			if m.Size() >= ix.MinPts {
				t.Fatalf("SMC with size %d >= MinPts", m.Size())
			}
		}
	}
	if !sawDMC || !sawSMC {
		t.Skipf("workload did not produce both DMC and SMC (dmc=%v smc=%v)", sawDMC, sawSMC)
	}
}

func TestKindString(t *testing.T) {
	if SMC.String() != "SMC" || CMC.String() != "CMC" || DMC.String() != "DMC" {
		t.Fatal("Kind.String")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestReachabilitySymmetricAndReflexive(t *testing.T) {
	pts, ix := buildRandom(t, 6, 500, 3, 0.7, 5)
	_ = pts
	reach := make([]map[int32]bool, len(ix.MCs))
	for i, m := range ix.MCs {
		reach[i] = make(map[int32]bool, len(m.Reach))
		for _, r := range m.Reach {
			reach[i][r] = true
		}
		if !reach[i][int32(i)] {
			t.Fatalf("MC %d not reachable from itself", i)
		}
	}
	for i, m := range ix.MCs {
		for _, r := range m.Reach {
			if !reach[r][int32(i)] {
				t.Fatalf("reachability not symmetric between %d and %d", i, r)
			}
		}
	}
	// Verify against brute force on centers (closed 3ε).
	r := 3 * ix.Eps
	for i, a := range ix.MCs {
		for j, b := range ix.MCs {
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
	if ix.NumMCs() != 1 || ix.MCs[0].Kind != SMC || ix.MCs[0].Size() != 1 {
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
		for _, m := range ix.MCs {
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

// TestParallelBuildIdenticalToSequential: the Workers option only
// parallelizes per-MC finalize work and reachable-list queries, so the
// produced index must be byte-identical to the sequential build — same
// membership, inner circles, kinds, and reachable lists, in the same order.
func TestParallelBuildIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 3000, 3, 10)
	eps, minPts := 0.6, 5
	seq := Build(pts, eps, minPts, Options{})
	for _, workers := range []int{2, 4, 8} {
		p := Build(pts, eps, minPts, Options{Workers: workers})
		if len(p.MCs) != len(seq.MCs) {
			t.Fatalf("workers=%d: %d MCs, sequential %d", workers, len(p.MCs), len(seq.MCs))
		}
		if !reflect.DeepEqual(p.PointMC, seq.PointMC) {
			t.Fatalf("workers=%d: PointMC differs", workers)
		}
		for i, m := range p.MCs {
			sm := seq.MCs[i]
			if m.CenterID != sm.CenterID || m.Kind != sm.Kind {
				t.Fatalf("workers=%d MC %d: center/kind differ", workers, i)
			}
			if !reflect.DeepEqual(m.Members, sm.Members) {
				t.Fatalf("workers=%d MC %d: membership differs", workers, i)
			}
			if !reflect.DeepEqual(m.InnerIDs, sm.InnerIDs) {
				t.Fatalf("workers=%d MC %d: inner circle differs", workers, i)
			}
			if !reflect.DeepEqual(m.Reach, sm.Reach) {
				t.Fatalf("workers=%d MC %d: reachable list differs", workers, i)
			}
			if m.Aux.Len() != sm.Aux.Len() {
				t.Fatalf("workers=%d MC %d: aux tree size differs", workers, i)
			}
		}
	}
}

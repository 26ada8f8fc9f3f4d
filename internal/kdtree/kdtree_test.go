package kdtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mudbscan/internal/geom"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

func bruteSphere(pts []geom.Point, c geom.Point, r float64, strict bool) []int {
	var out []int
	for i, p := range pts {
		d2 := geom.DistSq(c, p)
		if d2 < r*r || (!strict && d2 == r*r) {
			out = append(out, i)
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Build(2, nil, nil)
	if tr.Len() != 0 {
		t.Fatal("empty length")
	}
	if got, n := tr.SphereInto(geom.Point{0, 0}, 1, true, nil); n != 0 || len(got) != 0 {
		t.Fatal("empty tree should do no work")
	}
}

func TestSphereMatchesBrute(t *testing.T) {
	for _, d := range []int{1, 2, 3, 7} {
		rng := rand.New(rand.NewSource(int64(d) * 101))
		pts := randPoints(rng, 600, d)
		tr := Build(d, pts, nil)
		for trial := 0; trial < 40; trial++ {
			c := pts[rng.Intn(len(pts))]
			r := rng.Float64() * 30
			want := bruteSphere(pts, c, r, true)
			got, _ := tr.SphereInto(c, r, true, nil)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("d=%d mismatch got %d want %d", d, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("d=%d id mismatch", d)
				}
			}
		}
	}
}

func TestBuildDoesNotAliasInput(t *testing.T) {
	pts := []geom.Point{{1, 1}, {2, 2}, {3, 3}}
	ids := []int{0, 1, 2}
	tr := Build(2, pts, ids)
	// mutate the outer slices (not the point data) — the tree must be unaffected
	pts[0] = geom.Point{99, 99}
	ids[0] = 99
	got, _ := tr.SphereInto(geom.Point{1, 1}, 0.5, true, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("tree aliases caller slices: %v", got)
	}
}

func TestWidestAxis(t *testing.T) {
	pts := []geom.Point{{0, 0, 0}, {1, 5, 2}}
	if got := WidestAxisMBR(geom.MBRFromPoints(pts)); got != 1 {
		t.Fatalf("WidestAxisMBR=%d want 1", got)
	}
}

func TestMedianOfValues(t *testing.T) {
	if MedianOfValues([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if MedianOfValues([]float64{4, 1, 3, 2}) != 2 {
		t.Fatal("even lower median")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty")
		}
	}()
	MedianOfValues(nil)
}

// Property: the median split produces balanced halves (|left|-|right| <= 1 in
// point count at the root) and all queries agree with brute force.
func TestQuickEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		d := 1 + rng.Intn(4)
		n := rng.Intn(200)
		pts := randPoints(rng, n, d)
		tr := Build(d, pts, nil)
		if n == 0 {
			return tr.Len() == 0
		}
		c := pts[rng.Intn(n)]
		r := rng.Float64() * 50
		strict := rng.Intn(2) == 0
		want := bruteSphere(pts, c, r, strict)
		got, _ := tr.SphereInto(c, r, strict, nil)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSpherePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 2000, 3)
	tr := Build(3, pts, nil)
	_, calls := tr.SphereInto(pts[0], 1, true, nil)
	if calls >= 1000 {
		t.Fatalf("distCalcs=%d; no pruning", calls)
	}
}

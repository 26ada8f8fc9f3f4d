package rtree

import (
	"math"
	"math/rand"
	"testing"

	"mudbscan/internal/geom"
)

func TestNearestBasic(t *testing.T) {
	tr := New(2, 0)
	if _, _, ok := tr.Nearest(geom.Point{0, 0}, 1, true); ok {
		t.Fatal("empty tree has no nearest")
	}
	tr.Insert(0, geom.Point{0, 0})
	tr.Insert(1, geom.Point{3, 0})
	tr.Insert(2, geom.Point{10, 0})

	id, pt, ok := tr.Nearest(geom.Point{1, 0}, 5, true)
	if !ok || id != 0 || !pt.Equal(geom.Point{0, 0}) {
		t.Fatalf("nearest: id=%d ok=%v", id, ok)
	}
	// Nothing strictly within radius 1 of (5,0): nearest candidate is at 2.
	if _, _, ok := tr.Nearest(geom.Point{5, 0}, 1, true); ok {
		t.Fatal("no point within radius 1")
	}
}

func TestNearestStrictVsClosedBoundary(t *testing.T) {
	tr := New(1, 0)
	tr.Insert(7, geom.Point{5})
	// Query at distance exactly 5.
	if _, _, ok := tr.Nearest(geom.Point{0}, 5, true); ok {
		t.Fatal("strict: boundary point must be excluded")
	}
	id, _, ok := tr.Nearest(geom.Point{0}, 5, false)
	if !ok || id != 7 {
		t.Fatal("closed: boundary point must be included")
	}
}

func TestNearestTieBreaksTowardSmallerID(t *testing.T) {
	tr := New(2, 0)
	tr.Insert(9, geom.Point{1, 0})
	tr.Insert(3, geom.Point{-1, 0})
	id, _, ok := tr.Nearest(geom.Point{0, 0}, 2, true)
	if !ok || id != 3 {
		t.Fatalf("tie should pick smaller id, got %d", id)
	}
	// Same under closed semantics at the exact boundary.
	tr2 := New(2, 0)
	tr2.Insert(8, geom.Point{1, 0})
	tr2.Insert(2, geom.Point{-1, 0})
	id, _, ok = tr2.Nearest(geom.Point{0, 0}, 1, false)
	if !ok || id != 2 {
		t.Fatalf("closed tie should pick smaller id, got %d", id)
	}
}

// Past d = 4 the leaf scan of Nearest runs the bounded kernel, which may
// abandon a candidate once it is behind the running best.
func TestNearestMatchesBruteForce(t *testing.T) {
	for _, d := range []int{3, 6, 14} {
		rng := rand.New(rand.NewSource(int64(38 + d)))
		pts := randPoints(rng, 600, d)
		tr := refBulkLoad(d, 8, pts, nil)
		for trial := 0; trial < 100; trial++ {
			q := randPoints(rng, 1, d)[0]
			r := rng.Float64() * 40 * math.Sqrt(float64(d)/3)
			bestID, bestD := -1, r*r
			for i, p := range pts {
				d2 := geom.DistSq(q, p)
				if d2 < bestD || (d2 == bestD && bestID != -1 && i < bestID) {
					bestID, bestD = i, d2
				}
			}
			id, _, ok := tr.Nearest(q, r, true)
			if ok != (bestID != -1) {
				t.Fatalf("d=%d trial %d: ok=%v want %v", d, trial, ok, bestID != -1)
			}
			if ok && id != bestID {
				t.Fatalf("d=%d trial %d: id=%d want %d (d=%g vs %g)",
					d, trial, id, bestID, geom.DistSq(q, pts[id]), math.Sqrt(bestD))
			}
		}
	}
}

// TestNearerTieRule: the four corners of the tie rule — strict and closed
// ball, a tie exactly at the radius and a tie inside it — plus the plain
// orderings, all through the one predicate the tree and the micro-cluster
// centre directory share.
func TestNearerTieRule(t *testing.T) {
	const r2 = 4.0
	for _, c := range []struct {
		name       string
		d2, best   float64
		id, bestID int
		strict     bool
		want       bool
	}{
		{"strict, at the radius, nothing found", r2, r2, 5, -1, true, false},
		{"closed, at the radius, nothing found", r2, r2, 5, -1, false, true},
		{"closed, at the radius, smaller id", r2, r2, 3, 5, false, true},
		{"closed, at the radius, larger id", r2, r2, 7, 5, false, false},
		{"strict, tie inside, smaller id", 1, 1, 3, 5, true, true},
		{"strict, tie inside, larger id", 1, 1, 7, 5, true, false},
		{"closed, tie inside, smaller id", 1, 1, 3, 5, false, true},
		{"closed, tie inside, larger id", 1, 1, 7, 5, false, false},
		{"nearer wins whatever the id", 0.5, 1, 9, 2, true, true},
		{"farther loses whatever the id", 2, 1, 1, 2, false, false},
		{"NaN distance never wins", math.NaN(), r2, 1, -1, false, false},
	} {
		if got := Nearer(c.d2, c.best, c.id, c.bestID, c.strict); got != c.want {
			t.Errorf("%s: Nearer=%v, want %v", c.name, got, c.want)
		}
	}
	// The rule is order-independent: every arrival order of the same hits
	// elects the same winner.
	tr1, tr2 := New(1, 4), New(1, 4)
	hits := []struct {
		id int
		x  float64
	}{{4, 1}, {2, -1}, {9, 1}, {6, 2}, {1, -2}}
	for i := range hits {
		tr1.Insert(hits[i].id, geom.Point{hits[i].x})
		j := len(hits) - 1 - i
		tr2.Insert(hits[j].id, geom.Point{hits[j].x})
	}
	for _, strict := range []bool{true, false} {
		for _, r := range []float64{1, 1.5, 2} {
			id1, _, ok1 := tr1.Nearest(geom.Point{0}, r, strict)
			id2, _, ok2 := tr2.Nearest(geom.Point{0}, r, strict)
			if ok1 != ok2 || id1 != id2 {
				t.Fatalf("r=%g strict=%v: %d/%v vs %d/%v", r, strict, id1, ok1, id2, ok2)
			}
			if want := !(strict && r == 1); ok1 != want || (ok1 && id1 != 2) {
				t.Fatalf("r=%g strict=%v: got id %d ok %v", r, strict, id1, ok1)
			}
		}
	}
}

// TestInsertNonFiniteDoesNotPanic: NaN and ±Inf rows make every area in the
// quadratic split NaN; the split must still place every entry.
func TestInsertNonFiniteDoesNotPanic(t *testing.T) {
	tr := New(2, 4)
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 2}
	for i := 0; i < 200; i++ {
		tr.Insert(i, geom.Point{vals[i%len(vals)], vals[(i/len(vals))%len(vals)]})
	}
	// A sphere query cannot enumerate NaN rows, so count the leaves directly.
	seen := 0
	var count func(n *node)
	count = func(n *node) {
		seen += len(n.ids)
		for _, c := range n.children {
			count(c)
		}
	}
	count(tr.root)
	if seen != 200 || tr.Len() != 200 {
		t.Fatalf("tree holds %d (Len %d) of 200 points", seen, tr.Len())
	}
	if id, _, ok := tr.Nearest(geom.Point{1, 1}, 0.5, true); !ok || id%6 != 4 {
		t.Fatalf("nearest finite point: id=%d ok=%v", id, ok)
	}
}

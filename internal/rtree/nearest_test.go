package rtree

import (
	"math"
	"math/rand"
	"testing"

	"mudbscan/internal/geom"
)

// TestNearerTieRule: the four corners of the tie rule — strict and closed
// ball, a tie exactly at the radius and a tie inside it — plus the plain
// orderings, all through the one predicate the micro-cluster centre
// directory and its brute-force reference share.
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
	hits := []struct {
		id int
		x  float64
	}{{4, 1}, {2, -1}, {9, 1}, {6, 2}, {1, -2}}
	rng := rand.New(rand.NewSource(7))
	for _, strict := range []bool{true, false} {
		for _, r := range []float64{1, 1.5, 2} {
			for trial := 0; trial < 20; trial++ {
				best, bestID := r*r, -1
				for _, i := range rng.Perm(len(hits)) {
					if d2 := hits[i].x * hits[i].x; Nearer(d2, best, hits[i].id, bestID, strict) {
						best, bestID = d2, hits[i].id
					}
				}
				if want := !(strict && r == 1); (bestID != -1) != want || (want && bestID != 2) {
					t.Fatalf("r=%g strict=%v: elected %d", r, strict, bestID)
				}
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
	// The finite rows stay reachable through the NaN and infinite boxes.
	c := geom.Point{1, 1}
	var want []int
	for i := 0; i < 200; i++ {
		if vals[i%len(vals)] == 1 && vals[(i/len(vals))%len(vals)] == 1 {
			want = append(want, i)
		}
	}
	if got := collectSphere(Freeze(tr), c, 0.5, true); len(want) == 0 || !equalInts(got, want) {
		t.Fatalf("sphere around %v: %v, want %v", c, got, want)
	}
}

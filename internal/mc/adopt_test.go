package mc

import (
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/geom"
)

// TestBlockAdoptThenAdd: BuildSet's Index reads the caller's block in
// place; an Add after Adopt (μDBSCAN-D's halo batch) reallocates instead of
// writing past the adopted rows, leaves the caller's set as it was, and
// builds the Index one Build over all the points builds.
func TestBlockAdoptThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 2, 10)
	local, halo := pts[:200], pts[200:]

	set := geom.PointSetFromPoints(2, local)
	if ix := BuildSet(set, 0.7, 4, Options{}); &ix.Points.Data()[0] != &set.Data()[0] {
		t.Fatal("BuildSet copied the set")
	}

	// Spare capacity past the adopted rows holds a sentinel.
	backing := make([]float64, 2*len(pts))
	copy(backing, set.Data())
	for i := set.Len() * 2; i < len(backing); i++ {
		backing[i] = -1
	}
	adopted := geom.AdoptPointSet(2, backing[:2*len(local)])
	b := NewBuilder(2, 0.7, 4, Options{})
	b.Adopt(adopted)
	b.Add(halo)
	got := b.Finish()
	for i := 2 * len(local); i < len(backing); i++ {
		if backing[i] != -1 {
			t.Fatalf("Add wrote past the adopted rows at coordinate %d", i)
		}
	}
	if adopted.Len() != len(local) {
		t.Fatalf("Add grew the caller's set to %d rows", adopted.Len())
	}
	want := Build(pts, 0.7, 4, Options{})
	if !reflect.DeepEqual(got.PointMC, want.PointMC) || !reflect.DeepEqual(got.Points.Data(), want.Points.Data()) {
		t.Fatal("Adopt+Add built a different Index than Build")
	}
}

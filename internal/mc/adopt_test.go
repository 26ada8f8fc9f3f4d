package mc

import (
	"math/rand"
	"slices"
	"testing"

	"mudbscan/internal/geom"
)

// TestBlockReadInPlace: BuildSet's Index reads the caller's block in place,
// leaves it as it was, and is the Index Build builds over a copy.
func TestBlockReadInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 2, 10)
	set := geom.PointSetFromPoints(2, pts)
	before := slices.Clone(set.Data())

	ix := BuildSet(set, 0.7, 4, Options{})
	if &ix.Points.Data()[0] != &set.Data()[0] {
		t.Fatal("BuildSet copied the set")
	}
	if !slices.Equal(set.Data(), before) {
		t.Fatal("BuildSet wrote to the set")
	}
	if err := sameBytes(ix, Build(pts, 0.7, 4, Options{})); err != nil {
		t.Fatalf("BuildSet built a different Index than Build: %v", err)
	}
}

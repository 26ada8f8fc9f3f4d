package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mudbscan/internal/geom"
)

// TestBlockAdoptedByTheIndex: a run on a set builds the μR-tree over the
// caller's block itself — step 1's index, and the run over it, read the
// block's backing array — and answers what a run over a copy answers,
// leaving the block untouched.
func TestBlockAdoptedByTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blobs(rng, 600, 3, 4, 0.3, 0.1)
	set := geom.PointSetFromPoints(3, pts)
	before := slices.Clone(set.Data())

	ix := buildIndex(set, 0.5, 5, Options{})
	if got := newRun(ix, 0.5, 5, set.Len(), Options{}).set.Data(); &got[0] != &set.Data()[0] {
		t.Fatal("the run's points do not share the caller's backing array")
	}
	viaSet, _ := RunSet(set, 0.5, 5, Options{})
	viaCopy, _ := Run(pts, 0.5, 5, Options{})
	if !reflect.DeepEqual(viaSet, viaCopy) {
		t.Fatal("a run on the adopted set differs from a run on a copy")
	}
	if !slices.Equal(set.Data(), before) {
		t.Fatal("a run on the set wrote to it")
	}
}

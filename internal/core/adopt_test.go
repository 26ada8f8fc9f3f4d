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
// leaving the block as it found it. Both entry points that take a set run
// runLocal over it: RunSet, and RunLocal on a rank's block whose last rows
// are halo copies.
func TestBlockAdoptedByTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blobs(rng, 600, 3, 4, 0.3, 0.1)
	set := geom.PointSetFromPoints(3, pts)
	before := slices.Clone(set.Data())
	const localCount = 450

	for _, local := range []int{set.Len(), localCount} {
		ix := buildIndex(set, 0.5, 5, Options{})
		if got := newRun(ix, 0.5, 5, local, Options{}).ix.Points.Data(); &got[0] != &set.Data()[0] {
			t.Fatalf("localCount %d: the run's points do not share the caller's backing array", local)
		}
		ix.Restore()
	}
	viaSet, _ := RunSet(set, 0.5, 5, Options{})
	viaCopy, _ := Run(pts, 0.5, 5, Options{})
	if !reflect.DeepEqual(viaSet, viaCopy) {
		t.Fatal("a run on the adopted set differs from a run on a copy")
	}
	localSet := RunLocal(set, 0.5, 5, localCount, Options{}, Halo{})
	localCopy := RunLocal(geom.PointSetFromPoints(3, pts), 0.5, 5, localCount, Options{}, Halo{})
	localSet.Stats.Steps, localCopy.Stats.Steps = StepTimes{}, StepTimes{}
	if !reflect.DeepEqual(localSet, localCopy) {
		t.Fatal("a rank-local run on the caller's block differs from one on a copy")
	}
	if !slices.Equal(set.Data(), before) {
		t.Fatal("a run on the set wrote to it")
	}
}

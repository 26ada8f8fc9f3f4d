package cell

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// buildSorted is the build the package had before it grouped the points
// first: one comparison sort of all n positions by (cell tuple, id). It is
// the reference build is held to, field for field.
func buildSorted(pts []geom.Point, eps float64) *index {
	n := len(pts)
	dim := len(pts[0])
	ix := &index{dim: dim, side: cellSide(eps, dim), eps2: eps * eps}
	ix.cut = ix.eps2 * adjSlack
	ix.r = int64(math.Ceil(eps/ix.side)) + 1

	ptc := make([]int64, n*dim)
	for i, p := range pts {
		for j, v := range p {
			ptc[i*dim+j] = cellCoord(v, ix.side)
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		for j := 0; j < dim; j++ {
			if ca, cb := ptc[pa*dim+j], ptc[pb*dim+j]; ca != cb {
				return ca < cb
			}
		}
		return pa < pb
	})

	ix.set = geom.NewPointSet(dim, n)
	ix.ids = make([]int32, n)
	ix.posIDs = make([]int, n)
	ix.cellOf = make([]int32, n)
	ix.coords = []int64{}
	for pos, orig := range perm {
		ix.set.Append(pts[orig])
		ix.ids[pos] = int32(orig)
		ix.posIDs[pos] = pos
		if pos == 0 || !reflect.DeepEqual(ptc[orig*dim:orig*dim+dim], ptc[perm[pos-1]*dim:perm[pos-1]*dim+dim]) {
			ix.start = append(ix.start, int32(pos))
			ix.coords = append(ix.coords, ptc[orig*dim:orig*dim+dim]...)
		}
		ix.cellOf[pos] = int32(len(ix.start) - 1)
	}
	ix.start = append(ix.start, int32(n))
	return ix
}

// TestBuildMatchesSortedBuild: grouping before sorting changes how the index
// is reached, not one byte of it — ids, cellOf, the cell table, the block
// starts and the reordered coordinates all equal the sorted build's, on the
// conformance table (the two grid-adversarial sets included), the scenario
// corpus, and random sets with negative coordinates and duplicates up to
// d = 14.
func TestBuildMatchesSortedBuild(t *testing.T) {
	type input struct {
		name string
		pts  []geom.Point
		eps  float64
	}
	var inputs []input
	for _, c := range data.ConformanceCases() {
		inputs = append(inputs, input{c.Name, c.Pts, c.Eps})
	}
	for _, s := range data.Scenarios() {
		inputs = append(inputs, input{s.Name, s.Pts, s.Eps})
	}
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3, 5, 14} {
		pts := make([]geom.Point, 3000)
		for i := range pts {
			pts[i] = make(geom.Point, d)
			for j := range pts[i] {
				pts[i][j] = math.Round(rng.NormFloat64()*40) / 4 // duplicates, both signs
			}
		}
		inputs = append(inputs, input{"random", pts, 1.5}, input{"random, one cell", pts, 1e6}, input{"random, singleton cells", pts, 1e-3})
	}
	inputs = append(inputs, input{"single point", []geom.Point{{3, -4}}, 1})
	for _, in := range inputs {
		got, want := build(geom.PointSetFromPoints(len(in.pts[0]), in.pts), in.eps), buildSorted(in.pts, in.eps)
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"ids", got.ids, want.ids},
			{"cellOf", got.cellOf, want.cellOf},
			{"coords", got.coords, want.coords},
			{"start", got.start, want.start},
			{"set", got.set.Data(), want.set.Data()},
			{"posIDs", got.posIDs, want.posIDs},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s (d=%d, n=%d): %s differs from the sorted build", in.name, len(in.pts[0]), len(in.pts), f.name)
			}
		}
		if got.side != want.side || got.eps2 != want.eps2 || got.cut != want.cut || got.r != want.r || got.dim != want.dim {
			t.Errorf("%s: grid parameters differ", in.name)
		}
	}
}

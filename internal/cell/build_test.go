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

// dataset is one named input of the cell tests.
type dataset struct {
	name   string
	pts    []geom.Point
	eps    float64
	minPts int
}

// tableDatasets is the conformance table followed by the scenario corpus.
func tableDatasets() []dataset {
	var ds []dataset
	for _, c := range data.ConformanceCases() {
		ds = append(ds, dataset{c.Name, c.Pts, c.Eps, c.MinPts})
	}
	for _, s := range data.Scenarios() {
		ds = append(ds, dataset{s.Name, s.Pts, s.Eps, s.MinPts})
	}
	return ds
}

// appendCellNeighbors is the adjacency walk the package had before it walked
// the table once per run of cells sharing their first d−1 coordinates: one
// descent per cell, down to level d. It is the reference buildAdjacency is
// held to, entry for entry.
func (ix *index) appendCellNeighbors(dst []int32, c int) []int32 {
	cc := ix.coords[c*ix.dim : c*ix.dim+ix.dim]
	return ix.descend(dst, cc, 0, 0, ix.numCells(), 0)
}

// descend walks one level of the implicit grid-tree: within the sorted cell
// range [lo, hi) (all sharing a coordinate prefix above level), the values
// at this level form sorted runs. It binary-searches the window
// [cc[level]−r, cc[level]+r], accumulates each run's per-axis minimum gap
// into acc2 and recurses while the accumulated distance can still reach ε.
// At level == dim the range is a single fully-matched cell.
func (ix *index) descend(dst []int32, cc []int64, level, lo, hi int, acc2 float64) []int32 {
	if level == ix.dim {
		for c := lo; c < hi; c++ {
			dst = append(dst, int32(c))
		}
		return dst
	}
	i := ix.lowerBound(level, lo, hi, cc[level]-ix.r)
	for i < hi {
		v := ix.coords[i*ix.dim+level]
		if v > cc[level]+ix.r {
			break
		}
		j := ix.lowerBound(level, i, hi, v+1)
		dv := v - cc[level]
		if dv < 0 {
			dv = -dv
		}
		a2 := acc2
		if dv > 0 {
			// Points in cells dv apart on this axis differ by at least
			// (dv−1)·side in that coordinate.
			g := float64(dv-1) * ix.side
			a2 += g * g
		}
		if a2 <= ix.cut {
			dst = ix.descend(dst, cc, level+1, i, j, a2)
		}
		i = j
	}
	return dst
}

// TestAdjacencyMatchesPerCellWalk: walking the table once per run changes
// how the adjacency is reached, not one entry of it — adj and adjOff equal
// the per-cell walk's at 1 and 4 workers, on the conformance table, the
// scenario corpus, random sets at d = 1…14 with negative coordinates and
// duplicates, a 2-d set that lies in one column (one run holds every cell)
// and a 3-d set in which every (x, y) prefix is distinct (every run is one
// cell).
func TestAdjacencyMatchesPerCellWalk(t *testing.T) {
	inputs := tableDatasets()
	rng := rand.New(rand.NewSource(11))
	for d := 1; d <= 14; d++ {
		pts := make([]geom.Point, 2000)
		for i := range pts {
			pts[i] = make(geom.Point, d)
			for j := range pts[i] {
				pts[i][j] = math.Round(rng.NormFloat64()*24) / 4 // duplicates, both signs
			}
		}
		inputs = append(inputs, dataset{"random", pts, 1.5, 0}, dataset{"random, wide ε", pts, 4, 0})
	}
	column := make([]geom.Point, 1500)
	for i := range column {
		column[i] = geom.Point{0.1, math.Round(rng.NormFloat64()*400) / 4}
	}
	inputs = append(inputs, dataset{"one column", column, 1, 0})
	prefixes := make([]geom.Point, 1500)
	for i := range prefixes {
		prefixes[i] = geom.Point{float64(i) - 700, rng.Float64() * 6, rng.Float64() * 6}
	}
	inputs = append(inputs, dataset{"distinct (x, y) prefixes", prefixes, 1.2, 0})

	for _, in := range inputs {
		ix := build(geom.PointSetFromPoints(len(in.pts[0]), in.pts), in.eps)
		wantOff := []int32{0}
		var want []int32
		for c := 0; c < ix.numCells(); c++ {
			want = ix.appendCellNeighbors(want, c)
			wantOff = append(wantOff, int32(len(want)))
		}
		for _, workers := range []int{1, 4} {
			ix.adj, ix.adjOff = nil, nil
			ix.buildAdjacency(workers)
			if !reflect.DeepEqual(ix.adjOff, wantOff) || !reflect.DeepEqual(ix.adj, want) {
				t.Errorf("%s (d=%d, ε=%g, workers=%d): adjacency differs from the per-cell walk",
					in.name, len(in.pts[0]), in.eps, workers)
			}
		}
	}
}

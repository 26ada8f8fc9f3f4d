package dbscan

import (
	"errors"
	"math"

	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// ErrGridMemory is returned by GridDBSCAN when the cell-neighborhood
// structures would exceed the configured budget — the analogue of the
// "Mem Err" entries GridDBSCAN produces on high-dimensional datasets in
// Tables II and IV of the paper (the number of neighbor cells is
// exponential in the dimensionality).
var ErrGridMemory = errors.New("dbscan: grid neighbor enumeration exceeds budget (dimensionality too high)")

// GridOptions tunes GridDBSCAN; the zero value means defaults.
type GridOptions struct {
	// MaxNeighborEnum bounds the (2r+1)^d cell-offset enumeration per query.
	// Beyond it, per-cell neighbor lists are precomputed pairwise; beyond
	// MaxCellPairs non-empty-cell pairs, ErrGridMemory is returned.
	// Defaults: 100_000 and 50_000_000.
	MaxNeighborEnum int
	MaxCellPairs    int
}

// GridDBSCAN implements the exact grid-based DBSCAN of Kumari et al.
// (ICDCN'17), the paper's strongest sequential baseline. The data space is
// divided into cells of side ε/√d, so any two points sharing a cell are
// within ε of each other. Cells holding at least MinPts points make all
// their members core without a neighborhood query (the up-to-15% query
// saving the paper cites); remaining points are queried against the cells
// within Chebyshev distance ⌈√d⌉, and dense cells are then merged by
// targeted core-pair checks.
//
// Its cores, their partition and its noise are exact, but its borders do not
// always go where Brute puts them, with their smallest-id core neighbor. A
// dense cell's cores never query, so they claim no border: in UnionFind's id
// order a border goes to the first queried core whose query lists it, or, at
// its own query, to the first already-known core that query lists, in cell
// order. In the border-tie-1d conformance case (data.BorderTieCase, ε = 1.25,
// MinPts 4), point 10 at x = 2 has core neighbors 4, in a dense cell, and 5,
// queried: 5's query claims it, so it joins the right-hand cluster, where
// Brute puts it in the left-hand one with point 4.
func GridDBSCAN(pts []geom.Point, eps float64, minPts int, opts GridOptions) (*clustering.Result, Stats, error) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, Stats{}, nil
	}
	if opts.MaxNeighborEnum <= 0 {
		opts.MaxNeighborEnum = 100_000
	}
	if opts.MaxCellPairs <= 0 {
		opts.MaxCellPairs = 50_000_000
	}
	d := len(pts[0])
	// Shrink slightly so same-cell points are *strictly* within ε.
	side := eps / math.Sqrt(float64(d)) * (1 - 1e-12)
	grid := BuildGrid(pts, side)
	radius := int(math.Ceil(eps / side))

	// Neighbor-cell access: offset enumeration for low d, precomputed
	// pairwise lists for high d, error beyond budget.
	var neighborsOf func(c int32, fn func(members []int32))
	if NeighborEnumCount(radius, d) <= opts.MaxNeighborEnum {
		neighborsOf = func(c int32, fn func(members []int32)) {
			grid.VisitNeighborCells(c, radius, fn)
		}
	} else {
		m := grid.NumCells()
		if m*m > opts.MaxCellPairs {
			return nil, Stats{}, ErrGridMemory
		}
		coords := make([][]int32, m)
		for i, k := range grid.Keys {
			coords[i] = grid.Unkey(k)
		}
		lists := make([][]int32, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if ChebyshevWithin(coords[i], coords[j], int32(radius)) {
					lists[i] = append(lists[i], int32(j))
				}
			}
		}
		neighborsOf = func(c int32, fn func(members []int32)) {
			for _, j := range lists[c] {
				fn(grid.Members[j])
			}
		}
	}

	uf := unionfind.New(n)
	core := make([]bool, n)
	skip := make([]bool, n)
	var denseCells []int32
	for c, members := range grid.Members {
		if len(members) >= minPts {
			denseCells = append(denseCells, int32(c))
			for _, id := range members {
				core[id] = true
				skip[id] = true
				uf.Union(int(members[0]), int(id))
			}
		}
	}

	kern := geom.KernelFor(d)
	eps2 := eps * eps
	var dist int64
	nbhd := make([]int, 0, 64)
	st := UnionFind(uf, n, minPts, core, skip, func(i int) []int {
		p := pts[i]
		nbhd = nbhd[:0]
		neighborsOf(grid.Cell[i], func(members []int32) {
			for _, q := range members {
				dist++
				if kern(p, pts[q]) < eps2 {
					nbhd = append(nbhd, int(q))
				}
			}
		})
		return nbhd
	}).Stats

	// Merge dense cells: all points of a dense cell share one set already,
	// so a single close core pair merges two cells entirely.
	for _, c := range denseCells {
		a := grid.Members[c]
		neighborsOf(c, func(b []int32) {
			if len(b) < minPts || uf.Same(int(a[0]), int(b[0])) {
				return
			}
		scan:
			for _, x := range a {
				for _, y := range b {
					dist++
					if kern(pts[x], pts[y]) < eps2 {
						uf.Union(int(x), int(y))
						break scan
					}
				}
			}
		})
	}
	st.DistCalcs = dist
	return finish(uf, core), st, nil
}

package dist

import (
	"errors"
	"math"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// ErrDistGridMemory is returned when a grid-based distributed baseline
// cannot afford its exponential-in-dimension neighbor-cell enumeration —
// reproducing the "-" (could not run) entries of Table V for GridDBSCAN-D
// and HPDBSCAN on high-dimensional datasets.
var ErrDistGridMemory = errors.New("dist: grid neighbor enumeration exceeds budget (dimensionality too high)")

// distGridEnumBudget bounds the per-query (2r+1)^d cell enumeration for the
// grid-based distributed baselines.
const distGridEnumBudget = 200_000

// GridDBSCAND implements the distributed GridDBSCAN of Kumari et al.
// (ICDCN'17): the shared partition/halo/merge skeleton with a rank-local
// ε/√d grid. Dense cells (≥ MinPts members) make all their points core
// without queries and are merged by targeted core-pair checks; all other
// points are queried against their Chebyshev-⌈√d⌉ cell neighborhoods.
func GridDBSCAND(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{Ranks: p}, nil
	}
	side, radius := denseGrid(eps, len(pts[0]))
	if dbscan.NeighborEnumCount(radius, len(pts[0])) > distGridEnumBudget {
		return nil, nil, ErrDistGridMemory
	}
	return runDistributed(pts, eps, minPts, p, opts, gridLocal(side, radius, linkDenseCells))
}

// denseGrid returns GridDBSCAN-D's cell side, just under ε/√d so that a cell's
// diameter is below ε, and the Chebyshev cell radius that covers an ε-ball.
func denseGrid(eps float64, d int) (side float64, radius int) {
	side = eps / math.Sqrt(float64(d)) * (1 - 1e-12)
	return side, int(math.Ceil(eps / side))
}

// HPDBSCAN implements the highly-parallel grid DBSCAN of Götz et al.
// (MLHPC'15) as the paper characterizes it: cells of side ε reduce the
// search space of every query (3^d neighborhoods) but the number of queries
// is *not* reduced — every local point is queried.
func HPDBSCAN(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{Ranks: p}, nil
	}
	d := len(pts[0])
	if dbscan.NeighborEnumCount(1, d) > distGridEnumBudget {
		return nil, nil, ErrDistGridMemory
	}
	return runDistributed(pts, eps, minPts, p, opts, gridLocal(eps, 1, nil))
}

// gridLocal builds the rank-local clustering function for a grid of the
// given side and Chebyshev query radius: internal/dbscan's union-find driver
// with every query answered from the cells around the point's own. With a
// closing pass (GridDBSCAN), the members of a cell holding at least MinPts
// combined points are pre-marked core, unioned and never queried, and the
// pass, run after the flag swap, gives them their links; with none every
// local point is queried (HPDBSCAN).
func gridLocal(side float64, radius int, closing closingPass) localFn {
	return func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult {
		combined, n := set.Points(), set.Len()
		var steps core.StepTimes
		uf, isCore := unionfind.New(n), make([]bool, n)
		var grid *dbscan.Grid
		var skip []bool
		steps.TreeConstruction = timed(func() {
			grid = dbscan.BuildGrid(combined, side)
			if closing == nil {
				return
			}
			skip = make([]bool, n)
			for _, members := range grid.Members {
				if len(members) < minPts {
					continue
				}
				// Cell diameter < ε, so all members are mutually within ε:
				// every member is core regardless of unseen remote points.
				for _, id := range members {
					isCore[id] = true
					skip[id] = true
					uf.Union(int(members[0]), int(id))
				}
			}
		})

		kern := geom.KernelFor(set.Dim())
		eps2 := eps * eps
		nbhd := make([]int, 0, 64)
		var h dbscan.HaloResult
		steps.Clustering = timed(func() {
			h = dbscan.UnionFind(uf, localCount, minPts, isCore, skip, func(i int) []int {
				p := combined[i]
				nbhd = nbhd[:0]
				grid.VisitNeighborCells(grid.Cell[i], radius, func(members []int32) {
					for _, q := range members {
						if kern(p, combined[q]) < eps2 {
							nbhd = append(nbhd, int(q))
						}
					}
				})
				return nbhd
			})
		})

		var links func()
		if closing != nil {
			links = func() {
				closing(denseLinks{grid: grid, pts: combined, isCore: isCore, uf: uf,
					localCount: localCount, minPts: minPts, radius: radius, eps2: eps2, kern: kern})
			}
		}
		return classicResult(uf, isCore, &h, steps, halo, links)
	}
}

// denseLinks is what GridDBSCAN-D's closing pass reads: the rank's grid over
// its combined points (local rows first, then halo copies), the exact core
// flags after the swap, and the union-find the loop left.
type denseLinks struct {
	grid       *dbscan.Grid
	pts        []geom.Point
	isCore     []bool
	uf         *unionfind.UF
	localCount int
	minPts     int
	radius     int
	eps2       float64
	kern       geom.DistSqKernel
}

// closingPass links the dense cells' cores, which never queried, to every
// core within ε once the flags are exact.
type closingPass func(denseLinks)

// linkDenseCells is GridDBSCAN-D's closing pass, the grid analogue of
// μDBSCAN's Algorithm 7: targeted distance checks from the dense cells to
// every core in reach, halo copies included. A non-core local point in reach
// found them in its own query. A dense cell's members share one component
// since the grid was built, so the pass goes cell by cell, not point by
// point: each dense cell with a local member enumerates its neighbor cells
// once, and a core there that is not yet in the cell's component is unioned
// with the first local member within ε of it, if any. That is the edge set
// of every local member's own pass, less the edges that join nothing new.
func linkDenseCells(l denseLinks) {
	for c, members := range l.grid.Members {
		if len(members) < l.minPts || int(members[0]) >= l.localCount {
			continue
		}
		// A cell lists its points in id order, so the local ones come first.
		local := members
		for int(local[len(local)-1]) >= l.localCount {
			local = local[:len(local)-1]
		}
		head := int(members[0])
		l.grid.VisitNeighborCells(int32(c), l.radius, func(others []int32) {
			for _, q := range others {
				if !l.isCore[q] || l.uf.Same(head, int(q)) {
					continue
				}
				for _, i := range local {
					if l.kern(l.pts[i], l.pts[q]) < l.eps2 {
						l.uf.Union(int(i), int(q))
						break
					}
				}
			}
		})
	}
}

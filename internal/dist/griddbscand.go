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
	d := len(pts[0])
	side := eps / math.Sqrt(float64(d)) * (1 - 1e-12)
	radius := int(math.Ceil(eps / side))
	if dbscan.NeighborEnumCount(radius, d) > distGridEnumBudget {
		return nil, nil, ErrDistGridMemory
	}
	return runDistributed(pts, eps, minPts, p, opts, gridLocal(side, radius, true))
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
	return runDistributed(pts, eps, minPts, p, opts, gridLocal(eps, 1, false))
}

// gridLocal builds the rank-local clustering function for a grid of the
// given side and Chebyshev query radius: internal/dbscan's union-find driver
// with every query answered from the cells around the point's own. With
// denseCells true, the members of a cell holding at least MinPts combined
// points are pre-marked core, unioned and never queried (GridDBSCAN), and a
// closing pass gives them their links; otherwise every local point is
// queried (HPDBSCAN).
func gridLocal(side float64, radius int, denseCells bool) localFn {
	return func(set *geom.PointSet, eps float64, minPts, localCount int) *core.LocalResult {
		combined, n := set.Points(), set.Len()
		var steps core.StepTimes
		uf, isCore := unionfind.New(n), make([]bool, n)
		var grid *dbscan.Grid
		var skip []bool
		steps.TreeConstruction = timed(func() {
			grid = dbscan.BuildGrid(combined, side)
			if !denseCells {
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

		// The dense-cell cores never queried, so they link up here by
		// targeted distance checks (the grid analogue of μDBSCAN's
		// Algorithm 7): to every core in reach, and — as a deferred pair —
		// to every halo copy in reach that is not known core. A non-core
		// local point in reach found them in its own query.
		if denseCells {
			steps.PostProcessing = timed(func() {
				for i := 0; i < localCount; i++ {
					if !skip[i] {
						continue
					}
					p := combined[i]
					grid.VisitNeighborCells(grid.Cell[i], radius, func(members []int32) {
						for _, q := range members {
							switch {
							case int(q) == i:
							case isCore[q]:
								if !uf.Same(i, int(q)) && kern(p, combined[q]) < eps2 {
									uf.Union(i, int(q))
								}
							case int(q) >= localCount && kern(p, combined[q]) < eps2:
								h.Pairs = append(h.Pairs, [2]int32{int32(i), q})
							}
						}
					})
				}
			})
		}
		return classicResult(uf, isCore, h, steps)
	}
}

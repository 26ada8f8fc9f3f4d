package dist

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
	"mudbscan/internal/unionfind"
)

// PDSDBSCAND implements the disjoint-set parallel DBSCAN of Patwary et al.
// (SC'12) — the paper's PDSDBSCAN-D baseline. It shares μDBSCAN-D's
// partitioning, halo and merge machinery but the local phase is classic
// DBSCAN over a single R-tree: one ε-neighborhood query for *every* local
// point, with no query savings and no two-level index.
func PDSDBSCAND(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error) {
	return runDistributed(pts, eps, minPts, p, opts, func(set *geom.PointSet, e float64, mp, localCount int, halo core.Halo) *core.LocalResult {
		var steps core.StepTimes
		var tree *rtree.Packed
		steps.TreeConstruction = timed(func() { tree = rtree.BulkLoadSet(0, set, nil) })
		uf, isCore := unionfind.New(set.Len()), make([]bool, set.Len())
		// The driver is done with each neighborhood before the next query,
		// so a single reused buffer backs every allocation-free SphereInto.
		buf := make([]int, 0, 64)
		var h dbscan.HaloResult
		steps.Clustering = timed(func() {
			h = dbscan.UnionFind(uf, localCount, mp, isCore, nil, func(i int) []int {
				buf, _ = tree.SphereInto(set.Point(i), e, true, buf[:0])
				return buf
			})
		})
		return classicResult(uf, isCore, &h, steps, halo, nil)
	})
}

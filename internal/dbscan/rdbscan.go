package dbscan

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
	"mudbscan/internal/unionfind"
)

// RDBSCAN runs classic DBSCAN with an R-tree index accelerating the
// ε-neighborhood queries — the paper's "R-DBSCAN" baseline (Table II). One
// query is executed per point; only the per-query search space is reduced.
func RDBSCAN(pts []geom.Point, eps float64, minPts int) (*clustering.Result, Stats) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, Stats{}
	}
	tree := rtree.BulkLoad(len(pts[0]), 0, pts, nil)
	uf := unionfind.New(n)
	core := make([]bool, n)
	var dist int64
	// The driver consumes each neighborhood within the iteration, so one
	// buffer serves every allocation-free SphereInto query.
	nbhd := make([]int, 0, 64)
	st := UnionFind(uf, n, minPts, core, nil, func(i int) []int {
		var calcs int
		nbhd, calcs = tree.SphereInto(pts[i], eps, true, nbhd[:0])
		dist += int64(calcs)
		return nbhd
	}).Stats
	st.DistCalcs = dist
	return finish(uf, core), st
}

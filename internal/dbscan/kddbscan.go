package dbscan

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/kdtree"
	"mudbscan/internal/unionfind"
)

// KDBSCAN runs classic DBSCAN with a k-d tree accelerating the
// ε-neighborhood queries. It is not a baseline from the paper's evaluation;
// it completes the indexing ablation (brute force vs R-tree vs k-d tree vs
// two-level μR-tree) so the benchmarks can attribute μDBSCAN's advantage to
// the micro-cluster machinery rather than the index family.
func KDBSCAN(pts []geom.Point, eps float64, minPts int) (*clustering.Result, Stats) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, Stats{}
	}
	tree := kdtree.Build(len(pts[0]), pts, nil)
	uf := unionfind.New(n)
	core := make([]bool, n)
	var dist int64
	// As in RDBSCAN: the driver never retains a neighborhood, so a single
	// reused buffer keeps the query loop allocation-free.
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

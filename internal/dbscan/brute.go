package dbscan

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// Brute runs textbook DBSCAN with O(n²) neighborhood queries. It is the
// ground truth that every exact algorithm in this repository is tested
// against, and the no-index lower baseline for the benchmarks. The distance
// kernel and ε² are hoisted out of the scan and the neighborhood buffer is
// reused across queries, so even the ground truth spends its time on
// arithmetic rather than dispatch.
func Brute(pts []geom.Point, eps float64, minPts int) (*clustering.Result, Stats) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, Stats{}
	}
	kern := geom.KernelFor(len(pts[0]))
	eps2 := eps * eps
	uf := unionfind.New(n)
	core := make([]bool, n)
	var dist int64
	nbhd := make([]int, 0, n)
	st := UnionFind(uf, n, minPts, core, nil, func(i int) []int {
		nbhd = nbhd[:0]
		p := pts[i]
		for j, q := range pts {
			if kern(p, q) < eps2 {
				nbhd = append(nbhd, j)
			}
		}
		dist += int64(n)
		return nbhd
	}).Stats
	st.DistCalcs = dist
	return finish(uf, core), st
}

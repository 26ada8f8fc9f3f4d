package dbscan

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/unionfind"
)

// GDBSCAN implements the groups method of Kumar & Reddy ("A fast DBSCAN
// clustering algorithm by accelerating neighbor searching using Groups
// method", Pattern Recognition 2016) — the paper's G-DBSCAN baseline.
//
// Points are gathered into groups of radius ε/2 around master points chosen
// greedily; a neighborhood query then tests only the members of groups whose
// master lies within 1.5ε of the query point. No spatial index is used
// (matching the low memory footprint the paper reports in Table IV), so the
// master scan is linear in the number of groups: the claimed O(n·d) behavior
// that degrades toward O(n²) when groups are numerous — which is exactly the
// ">12 hrs" pattern of Table II on large low-dimensional data.
func GDBSCAN(pts []geom.Point, eps float64, minPts int) (*clustering.Result, Stats) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, Stats{}
	}
	kern := geom.KernelFor(len(pts[0]))
	half := eps / 2
	half2 := half * half
	eps2 := eps * eps
	var masters []int     // point id of each group master
	var members [][]int32 // group id -> member ids
	groupOf := make([]int32, n)
	var dist int64
	for i, p := range pts {
		best := -1
		for g, m := range masters {
			dist++
			if kern(p, pts[m]) < half2 {
				best = g
				break
			}
		}
		if best == -1 {
			best = len(masters)
			masters = append(masters, i)
			members = append(members, nil)
		}
		members[best] = append(members[best], int32(i))
		groupOf[i] = int32(best)
	}

	search := eps + half
	search2 := search * search
	uf := unionfind.New(n)
	core := make([]bool, n)
	nbhd := make([]int, 0, 64)
	st := UnionFind(uf, n, minPts, core, nil, func(i int) []int {
		p := pts[i]
		nbhd = nbhd[:0]
		for g, m := range masters {
			dist++
			if kern(p, pts[m]) >= search2 {
				continue
			}
			for _, q := range members[g] {
				dist++
				if kern(p, pts[q]) < eps2 {
					nbhd = append(nbhd, int(q))
				}
			}
		}
		return nbhd
	}).Stats
	st.DistCalcs = dist
	return finish(uf, core), st
}

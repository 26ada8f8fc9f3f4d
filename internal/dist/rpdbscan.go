package dist

import (
	"math"
	"sort"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/unionfind"
)

// RPDBSCAN implements the mechanism of RP-DBSCAN (Song & Lee, SIGMOD'18) —
// the paper's approximate Spark baseline: *random* (pseudo-random, hence
// locality-free) partitioning of points across ranks, a two-level cell
// dictionary built collectively over an ε/√d grid, and a cell-graph merge.
// Because the partitioning ignores spatial locality, every rank must learn
// about every non-empty cell, which is exactly the overhead that makes
// RP-DBSCAN slow in Table V despite skipping the kd partitioning phase.
//
// The result is ρ-approximate, not exact: core cells (≥ MinPts points) are
// clustered by cell adjacency (minimum rectangle distance ≤ ρ·ε), point
// coreness outside dense cells is approximated at cell granularity. Use the
// exact algorithms when exactness matters; this exists as an evaluation
// baseline. Of its Stats only Ranks and Comm are filled: Phases stays zero.
func RPDBSCAN(pts []geom.Point, eps float64, minPts, p int, rho float64, opts Options) (*clustering.Result, *Stats, error) {
	n := len(pts)
	if n == 0 {
		return &clustering.Result{}, &Stats{Ranks: p}, nil
	}
	if rho <= 0 {
		rho = 0.99
	}
	dim := len(pts[0])
	side := eps / math.Sqrt(float64(dim)) * (1 - 1e-12)
	st := &Stats{Ranks: p}
	// The ε/√d grid over all points is the cell-key codec: it names each
	// point's cell. The dictionaries below are still assembled rank by rank.
	grid := dbscan.BuildGrid(pts, side)

	type cellInfo struct {
		key   string
		count int64
	}
	// Global cell dictionary assembled from per-rank sub-dictionaries.
	globalCounts := make(map[string]int64)
	var keyOrder []string
	labels := make([]int, n)

	comm, err := mpi.Run(p, func(c *mpi.Comm) error {
		rank := c.Rank()
		// Pseudo-random partitioning: point i lives on rank i mod p.
		var local []int
		for i := rank; i < n; i += p {
			local = append(local, i)
		}

		// Level-1: local cell sub-dictionary.
		localCounts := make(map[string]int64)
		for _, i := range local {
			localCounts[grid.Keys[grid.Cell[i]]]++
		}
		// Serialize and allgather the sub-dictionaries (the locality-free
		// all-to-all traffic characteristic of random partitioning).
		var flat []cellInfo
		for k, v := range localCounts {
			flat = append(flat, cellInfo{k, v})
		}
		sort.Slice(flat, func(a, b int) bool { return flat[a].key < flat[b].key })
		buf := make([]byte, 0, len(flat)*(4*dim+8))
		for _, ci := range flat {
			buf = append(buf, ci.key...)
			buf = append(buf, mpi.EncodeInt64s([]int64{ci.count})...)
		}
		all := c.Allgather(buf)

		if rank == 0 {
			recLen := 4*dim + 8
			for _, b := range all {
				for off := 0; off+recLen <= len(b); off += recLen {
					k := string(b[off : off+4*dim])
					if _, ok := globalCounts[k]; !ok {
						keyOrder = append(keyOrder, k)
					}
					globalCounts[k] += mpi.DecodeInt64s(b[off+4*dim : off+recLen])[0]
				}
			}
			sort.Strings(keyOrder)

			// Cell graph: core cells cluster by rectangle distance <= rho*eps.
			coreCells := make([]string, 0)
			index := make(map[string]int)
			for _, k := range keyOrder {
				if globalCounts[k] >= int64(minPts) {
					index[k] = len(coreCells)
					coreCells = append(coreCells, k)
				}
			}
			uf := unionfind.New(len(coreCells))
			coords := make([][]int32, len(coreCells))
			for i, k := range coreCells {
				coords[i] = grid.Unkey(k)
			}
			// Two cells can hold ε-close points iff their min rectangle
			// distance is below rho*eps; cell widths make Chebyshev radius
			// ceil(rho*eps/side) a safe over-approximation.
			rad := int32(math.Ceil(rho * eps / side))
			for i := range coreCells {
				for j := i + 1; j < len(coreCells); j++ {
					if dbscan.ChebyshevWithin(coords[i], coords[j], rad) &&
						cellMinDist(coords[i], coords[j], side) <= rho*eps {
						uf.Union(i, j)
					}
				}
			}
			cellLabels := uf.Labels()
			// Label points: core-cell members take their cell's cluster;
			// others adopt an adjacent core cell's cluster or become noise.
			dense := make(map[string]int)
			for k, i := range index {
				dense[k] = cellLabels[i]
			}
			// Adjacent-cell adoption below takes the first dense cell that
			// qualifies; scanning the map directly would let Go's randomized
			// iteration pick the winner, so the candidate order is pinned.
			denseKeys := make([]string, 0, len(dense))
			for k := range dense {
				denseKeys = append(denseKeys, k)
			}
			sort.Strings(denseKeys)
			remap := make(map[int]int)
			next := 0
			for i := range pts {
				k := grid.Keys[grid.Cell[i]]
				cl, ok := dense[k]
				if !ok {
					cl = -1
					pc := grid.Unkey(k)
					for _, dk := range denseKeys {
						if dbscan.ChebyshevWithin(pc, grid.Unkey(dk), rad) &&
							cellMinDist(pc, grid.Unkey(dk), side) <= rho*eps {
							cl = dense[dk]
							break
						}
					}
				}
				if cl == -1 {
					labels[i] = clustering.Noise
					continue
				}
				l, ok := remap[cl]
				if !ok {
					l = next
					remap[cl] = l
					next++
				}
				labels[i] = l
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	st.Comm = comm

	// Approximate core flags: members of dense cells.
	coreFlags := make([]bool, n)
	for i := range pts {
		if globalCounts[grid.Keys[grid.Cell[i]]] >= int64(minPts) {
			coreFlags[i] = true
		}
	}
	num := 0
	for _, l := range labels {
		if l >= num {
			num = l + 1
		}
	}
	return &clustering.Result{Labels: labels, Core: coreFlags, NumClusters: num}, st, nil
}

// cellMinDist returns the minimum distance between two grid cells of the
// given side length.
func cellMinDist(a, b []int32, side float64) float64 {
	var s float64
	for i := range a {
		gap := float64(abs32(a[i]-b[i])) - 1
		if gap > 0 {
			d := gap * side
			s += d * d
		}
	}
	return math.Sqrt(s)
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

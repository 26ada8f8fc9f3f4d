// Package dbscan implements the sequential baseline algorithms the paper
// compares μDBSCAN against (§VI-A): brute-force DBSCAN (the ground truth for
// exactness tests), R-DBSCAN (classic DBSCAN over an R-tree), G-DBSCAN
// (the groups method of Kumar & Reddy, no spatial index), and GridDBSCAN
// (the ε-grid method of Kumari et al. with dense-cell query savings).
//
// All exact variants share the union-find cluster-formation driver of
// Patwary et al. (Algorithm 1 of the paper), parameterized by the
// neighborhood query — and so do the rank-local phases of the exact
// distributed baselines in internal/dist (PDSDBSCAN-D, GridDBSCAN-D,
// HPDBSCAN), which run it over their owned points followed by halo copies.
//
// The driver gives a border to the first core that reaches it in id order.
// Where every core queries, that is its smallest-id core neighbor, Brute's
// rule, so R-DBSCAN, KD-DBSCAN and G-DBSCAN return Brute's bytes. GridDBSCAN
// proves a dense cell's points core without querying them, so a border goes
// to the first queried core whose query lists it, or to the first known core
// its own query lists, in cell order: border-tie-1d's point 10 joins core
// 5's cluster, not core 4's (see GridDBSCAN).
package dbscan

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/unionfind"
)

// Stats records the work a clustering run performed; the benchmark harness
// reports these alongside wall-clock time.
type Stats struct {
	// Queries is the number of ε-neighborhood queries executed.
	Queries int
	// QueriesSaved is the number of points whose query was skipped because
	// the algorithm proved them core (or noise) by other means.
	QueriesSaved int
	// DistCalcs is the number of point-to-point distance computations.
	DistCalcs int64
}

// QuerySavedPct returns the percentage of the n potential queries that were
// saved.
func (s Stats) QuerySavedPct() float64 {
	total := s.Queries + s.QueriesSaved
	if total == 0 {
		return 0
	}
	return 100 * float64(s.QueriesSaved) / float64(total)
}

// HaloResult is what a UnionFind run leaves besides the union-find
// structure and the core flags: its counters, and the links that wait on
// the exact core flags of halo copies, which Settle makes once they are
// known. A run without halo copies leaves nothing to settle. Stats.DistCalcs
// is the caller's to fill.
type HaloResult struct {
	Stats
	// pairs are the links {A, B} from a core A to a halo copy B that was
	// not known core when A's query ran.
	pairs [][2]int32
	// unclaimed holds, in id order, every owned point whose query found no
	// core neighbor but a halo copy, as one run [i, k, q1, …, qk] of the
	// point and its k-point neighborhood: only such a copy can still turn
	// out core and claim it.
	unclaimed []int32
	// assigned marks the non-core points a query claimed as borders.
	assigned []bool
}

// UnionFind is the disjoint-set cluster-formation driver: one
// ε-neighborhood query per owned point, with cores claiming unassigned
// non-core neighbors as borders. The points are uf's elements; the first
// localCount are owned by the run (all of them for a sequential run) and the
// rest are halo copies owned elsewhere: a copy is never queried and never
// claimed as a border, and a core's link to a copy that is not core waits
// for HaloResult.Settle.
//
// query(i) must return the ids of all points strictly within eps of point i,
// including i itself; the driver is done with the slice before the next
// call. core may arrive with some entries pre-marked (points proven core
// without a query); skip marks owned points whose query is skipped entirely
// (nil for none) — the caller is responsible for the unions among pairs of
// skipped points, while unions between a skipped core and any queried point
// are handled here.
//
// No noise pass follows the loop, because none could claim anything: the
// strict-ε test is symmetric, so a point with a core neighbor among the
// owned or pre-marked points is claimed by that core's query or claims it
// in its own, whichever runs first.
func UnionFind(uf *unionfind.UF, localCount, minPts int, core, skip []bool, query func(i int) []int) HaloResult {
	h := HaloResult{assigned: make([]bool, uf.Len())}
	for i := 0; i < localCount; i++ {
		if skip != nil && skip[i] {
			h.QueriesSaved++
			continue
		}
		nbhd := query(i)
		h.Queries++
		if len(nbhd) >= minPts {
			core[i] = true
			for _, q := range nbhd {
				switch {
				case q == i:
				case core[q]:
					uf.Union(i, q)
				case q >= localCount:
					h.pairs = append(h.pairs, [2]int32{int32(i), int32(q)})
				case !h.assigned[q]:
					uf.Union(i, q)
					h.assigned[q] = true
				}
			}
			continue
		}
		// Self-attach to the first core neighbor, but never re-attach a
		// border already claimed by a cluster: that would bridge two
		// clusters through a non-core point.
		if h.assigned[i] {
			continue
		}
		halo := false
		for _, q := range nbhd {
			if core[q] {
				uf.Union(i, q)
				h.assigned[i] = true
				break
			}
			halo = halo || q >= localCount
		}
		if halo && !h.assigned[i] {
			h.unclaimed = append(h.unclaimed, int32(i), int32(len(nbhd)))
			for _, q := range nbhd {
				h.unclaimed = append(h.unclaimed, int32(q))
			}
		}
	}
	return h
}

// Settle makes the links the run left waiting, once core holds the halo
// copies' exact flags: it joins each pair whose copy is core, and each
// unclaimed point to its core neighbor of smallest global id (gids[i] is row
// i's) — dbscan.Brute's rule, which the point's complete neighborhood
// decides. A point that a later query claimed keeps its claimer.
func (h *HaloResult) Settle(uf *unionfind.UF, core []bool, gids []int64) {
	for _, pr := range h.pairs {
		if core[pr[1]] {
			uf.Union(int(pr[0]), int(pr[1]))
		}
	}
	for run := h.unclaimed; len(run) > 0; {
		i, nbhd := run[0], run[2:2+run[1]]
		run = run[2+run[1]:]
		if h.assigned[i] {
			continue
		}
		best := int32(-1)
		for _, q := range nbhd {
			if core[q] && (best < 0 || gids[q] < gids[best]) {
				best = q
			}
		}
		if best >= 0 {
			uf.Union(int(i), int(best))
		}
	}
}

// finish converts the union-find state into a dense clustering result.
func finish(uf *unionfind.UF, core []bool) *clustering.Result {
	comp := make([]int, uf.Len())
	for i := range comp {
		comp[i] = uf.Find(i)
	}
	return clustering.FromUnionLabels(comp, core)
}

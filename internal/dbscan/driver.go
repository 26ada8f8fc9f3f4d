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
// structure and the core flags: its counters and the state a distributed
// merge needs to settle the links that depend on halo copies. A run without
// halo copies leaves Pairs and NoiseNbhd empty. Stats.DistCalcs is the
// caller's to fill.
type HaloResult struct {
	Stats
	// Pairs are the deferred links {A, B} from a core A to a halo copy B
	// that is not known to be core here; B's owner decides.
	Pairs [][2]int32
	// NoiseNbhd holds the ε-neighborhood of every owned point that found no
	// core neighbor while a halo copy was in reach and that no later query
	// claimed: only such a copy can still turn out core and claim it.
	NoiseNbhd map[int32][]int32
}

// UnionFind is the disjoint-set cluster-formation driver: one
// ε-neighborhood query per owned point, with cores claiming unassigned
// non-core neighbors as borders. The points are uf's elements; the first
// localCount are owned by the run (all of them for a sequential run) and the
// rest are halo copies owned elsewhere: a copy is never queried and never
// claimed as a border, and a core's link to a copy that is not core becomes
// a deferred Pair.
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
	var h HaloResult
	assigned := make([]bool, uf.Len()) // the non-core points claimed as borders
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
					h.Pairs = append(h.Pairs, [2]int32{int32(i), int32(q)})
				case !assigned[q]:
					uf.Union(i, q)
					assigned[q] = true
					delete(h.NoiseNbhd, int32(q)) // stored by its own, earlier query
				}
			}
			continue
		}
		// Self-attach to the first core neighbor, but never re-attach a
		// border already claimed by a cluster: that would bridge two
		// clusters through a non-core point.
		if assigned[i] {
			continue
		}
		halo := false
		for _, q := range nbhd {
			if core[q] {
				uf.Union(i, q)
				assigned[i] = true
				break
			}
			halo = halo || q >= localCount
		}
		if halo && !assigned[i] {
			h.keepNoise(i, nbhd)
		}
	}
	return h
}

// keepNoise stores the neighborhood of provisional-noise point i.
func (h *HaloResult) keepNoise(i int, nbhd []int) {
	if h.NoiseNbhd == nil {
		h.NoiseNbhd = make(map[int32][]int32)
	}
	nb := make([]int32, len(nbhd))
	for k, q := range nbhd {
		nb[k] = int32(q)
	}
	h.NoiseNbhd[int32(i)] = nb
}

// finish converts the union-find state into a dense clustering result.
func finish(uf *unionfind.UF, core []bool) *clustering.Result {
	comp := make([]int, uf.Len())
	for i := range comp {
		comp[i] = uf.Find(i)
	}
	return clustering.FromUnionLabels(comp, core)
}

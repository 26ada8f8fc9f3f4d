// Package cell implements the grid-based exact DBSCAN engine: the
// second-generation engine the ROADMAP names, built from the cell
// decomposition of Wang–Gu–Shun (arXiv 1912.06255) with GriT-DBSCAN's
// sparse non-empty-cell table (arXiv 2210.07580) in place of a dense
// d-dimensional array.
//
// The grid has cells of side ε/√d, so any two points sharing a cell are
// strictly within ε of each other. The engine runs in five phases:
//
//  1. Build: every point is assigned integer cell coordinates, the points
//     are reordered into contiguous per-cell blocks of a geom.PointSet
//     (by cell, then by original id: grouped through a hash table, placed
//     by a counting sort), and the non-empty cells form a lexicographically
//     sorted coordinate table — no dense array, so the grid costs O(n)
//     regardless of how sparse the data is.
//  2. Adjacency: for each non-empty cell, the cells whose minimum box
//     distance is within ε are enumerated from the sorted table, read as an
//     implicit grid-tree (each level a binary-searchable run of sorted
//     values) and pruned on the accumulated minimum distance. Cells sharing
//     their first d−1 coordinates form one run of the table and share the
//     walk: it descends once per run, to level d−1, and each cell takes its
//     last-axis window in every candidate run from cursors that only move
//     forward. The lists, in one flat arena, make the per-point scan leaf
//     allocation-free.
//  3. Mark: a cell with ≥ minPts points makes all its points core without
//     any distance computation (the same-cell shortcut); sparse cells
//     count each point's ε-neighbors with block-kernel scans over the
//     adjacent cells, stopping at minPts hits. Parallel over cells.
//  4. Connect: cells are vertices of a union-find forest
//     (unionfind.Concurrent); two cells with core points merge as soon as
//     one core–core pair lies strictly within ε. Same-cell cores are
//     connected by construction. Pairs of touching cells are visited
//     first, so most far pairs are already merged when their turn comes.
//     Parallel over cells.
//  5. Assign: every non-core point joins the component of its
//     minimum-original-id core neighbor — exactly the tie rule the brute
//     force union-find driver produces — or stays noise.
//
// The result is byte-identical to dbscan.Brute at any worker count: the
// same core flags (the kernels are bit-identical to DistSq), the same
// component partition, and therefore the same labels after
// clustering.FromUnionLabels numbering.
package cell

import (
	"math"
	"math/bits"
	"slices"

	"mudbscan/internal/geom"
	"mudbscan/internal/par"
)

// sideShrink keeps the cell diagonal strictly below ε: with side exactly
// ε/√d a same-cell pair could sit at distance ε (excluded by the open
// neighborhood), breaking the all-core shortcut. The 1e-12 relative shrink
// leaves the diagonal at ε(1-1e-12) — three orders of magnitude more margin
// than the ~1e-15 relative rounding of the distance kernels.
const sideShrink = 1 - 1e-12

// adjSlack widens the adjacency min-distance cutoff so float rounding in
// the (|Δ|−1)·side gap arithmetic can never drop a cell that holds a true
// ε-neighbor. Over-inclusion is harmless: point membership is always decided
// by the exact kernels.
const adjSlack = 1 + 1e-9

// cellSide is the grid pitch for the given parameters.
func cellSide(eps float64, dim int) float64 {
	return eps / math.Sqrt(float64(dim)) * sideShrink
}

// cellCoord maps one coordinate to its integer cell index on the grid. It
// is a cell index only while Representable holds; beyond that it saturates
// at ±coordLimit (the profile sampler sees unchecked input).
func cellCoord(v, side float64) int64 {
	return geom.FloorClamp(v/side, -coordLimit, coordLimit)
}

// coordLimit bounds |v|/side. Below 2^52 the float64 quotient still has a
// fractional bit, so its floor tells neighbouring cells apart. From 2^53 on
// the quotient is spaced more than one cell, coordinates many ε apart land
// in one cell and "same cell ⇒ ε-neighbors" merges them; past 2^63 the int64
// conversion saturates and everything shares one cell.
const coordLimit = 1 << 52

// Representable reports whether the grid can index set at this ε: every
// coordinate satisfies |v|/side < 2^52 (NaN and ±Inf do not). RunSet is
// exact only for representable input; callers that take points from outside
// check first and use the μR-tree engine, or reject the request, when it
// fails.
func Representable(set *geom.PointSet, eps float64) bool {
	lim := cellSide(eps, set.Dim()) * coordLimit
	for _, v := range set.Data() {
		if !(math.Abs(v) < lim) {
			return false
		}
	}
	return true
}

// index is the built grid: the per-cell reordered point set, the sorted
// non-empty-cell table, and the precomputed cell adjacency.
type index struct {
	set  *geom.PointSet
	dim  int
	side float64
	eps2 float64
	cut  float64 // eps²·adjSlack, the adjacency min-distance cutoff
	r    int64   // Chebyshev cell radius of the adjacency window

	ids    []int32 // ids[pos] = original id; ascending within each cell
	posIDs []int   // identity permutation, sliced per block for AppendWithinBlock
	cellOf []int32 // cellOf[pos] = index of the cell holding position pos

	coords []int64 // cells×dim integer cell coordinates, lexicographically sorted
	start  []int32 // cells+1 prefix: cell c holds positions [start[c], start[c+1])

	adj    []int32 // concatenated neighbor-cell lists (self included), ascending
	adjOff []int32 // cells+1 offsets into adj
}

func (ix *index) numCells() int { return len(ix.start) - 1 }

// build assigns cells, reorders the points into per-cell blocks and erects
// the sorted cell table. Adjacency is computed separately (buildAdjacency)
// so the two phases can be timed apart.
//
// Group, then sort the groups (the grid construction of Wang–Gu–Shun): the
// points are grouped by cell through a hash table, only the distinct cells
// are sorted lexicographically — a fifth to a half as many as there are
// points, and the comparator walks d words — and a stable counting sort by
// cell rank then puts the points in place, ids ascending within each cell
// for free.
func build(set *geom.PointSet, eps float64) *index {
	n := set.Len()
	dim := set.Dim()
	ix := &index{
		dim:  dim,
		side: cellSide(eps, dim),
		eps2: eps * eps,
	}
	ix.cut = ix.eps2 * adjSlack
	ix.r = int64(math.Ceil(eps/ix.side)) + 1

	// Group: an open-addressed table over the cell tuples, at most half
	// full. A tuple seen for the first time takes the next provisional cell
	// number; the table remembers numbers, the tuples sit side by side.
	shift := 64 - bits.Len(uint(2*n-1))
	slots := make([]int32, 1<<(64-shift)) // provisional cell number + 1, 0 while free
	var tuples []int64                    // provisional cell c is tuples[c*dim : (c+1)*dim]
	group := make([]int32, n)             // provisional cell of each point
	tuple := make([]int64, dim)
	for i := range group {
		var h uint64
		for j, v := range set.Row(i) {
			tuple[j] = cellCoord(v, ix.side)
			h = (h + uint64(tuple[j])) * 0x9E3779B97F4A7C15
		}
		s := int(h >> shift)
		for ; slots[s] != 0; s = (s + 1) & (len(slots) - 1) {
			if c := int(slots[s]-1) * dim; slices.Equal(tuples[c:c+dim], tuple) {
				break
			}
		}
		if slots[s] == 0 {
			tuples = append(tuples, tuple...)
			slots[s] = int32(len(tuples) / dim)
		}
		group[i] = slots[s] - 1
	}

	// Sort the distinct cells; rank maps a provisional number to its place
	// in the sorted table.
	cells := len(tuples) / dim
	order := make([]int32, cells)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(tuples[int(a)*dim:int(a)*dim+dim], tuples[int(b)*dim:int(b)*dim+dim])
	})
	rank := make([]int32, cells)
	ix.coords = make([]int64, cells*dim)
	for r, c := range order {
		rank[c] = int32(r)
		copy(ix.coords[r*dim:], tuples[int(c)*dim:int(c)*dim+dim])
	}

	// Stable counting sort of the points by cell rank, into contiguous
	// per-cell blocks; order is done with and serves as the cursors.
	ix.start = make([]int32, cells+1)
	for _, c := range group {
		ix.start[rank[c]+1]++
	}
	for r := 0; r < cells; r++ {
		order[r] = ix.start[r]
		ix.start[r+1] += ix.start[r]
	}
	ix.ids = make([]int32, n)
	ix.cellOf = make([]int32, n)
	for i, c := range group {
		r := rank[c]
		ix.ids[order[r]] = int32(i)
		ix.cellOf[order[r]] = r
		order[r]++
	}
	ix.set = geom.NewPointSet(dim, n)
	ix.posIDs = make([]int, n)
	for pos, orig := range ix.ids {
		ix.set.AppendRow(set.Row(int(orig)))
		ix.posIDs[pos] = pos
	}
	return ix
}

// buildAdjacency precomputes, for every cell, the ascending list of cells
// (self included) whose minimum box distance is within the slackened ε, all
// in one arena: cell c's list is adj[adjOff[c]:adjOff[c+1]]. Hoisting this
// out of the per-point scan is what lets the scan leaf run without scratch:
// it only walks a flat list.
//
// Cells that share their first d−1 coordinates form one run of the sorted
// table, and they share everything but the last axis: the runs that can hold
// a neighbour (the candidate runs) and the distance accumulated over the
// first d−1 axes. So the table is descended once per run, down to level d−1,
// and each candidate run becomes a window: a cell's neighbours in it are the
// contiguous cells within the window's reach of its last coordinate, and as
// that coordinate ascends through the run both ends of the range only move
// forward. The lists are those a per-cell descent to level d would give,
// entry for entry: the same gap test on the same floats picks the same
// cells, and candidate runs, visited in table order, keep each list
// ascending.
//
// Parallel over contiguous groups of runs; each worker appends the groups it
// takes to its own arena, and the groups are joined in table order, so the
// result is the same at any worker count.
func (ix *index) buildAdjacency(workers int) {
	cells, d := ix.numCells(), ix.dim
	runStart := make([]int32, 0, cells+1)
	for c := 0; c < cells; c++ {
		if c == 0 || !slices.Equal(ix.coords[(c-1)*d:c*d-1], ix.coords[c*d:c*d+d-1]) {
			runStart = append(runStart, int32(c))
		}
	}
	runs := len(runStart)
	runStart = append(runStart, int32(cells))

	groups := 1
	if workers > 1 {
		groups = min(runs, 4*workers)
	}
	// Per-worker scratch: the candidate windows of the current run, and the
	// arena the worker appends its groups' lists to. spans[g] locates group
	// g's lists in its worker's arena.
	type span struct{ w, lo, hi int }
	wins := make([][]window, workers)
	arenas := make([][]int32, workers)
	for w := range arenas {
		wins[w] = make([]window, 0, 64)
		arenas[w] = make([]int32, 0, cells/workers) // every list holds its own cell
	}
	spans := make([]span, groups)
	ix.adjOff = make([]int32, cells+1)
	par.For(workers, groups, func(w, g int) {
		r0, r1 := g*runs/groups, (g+1)*runs/groups
		part := arenas[w]
		from := len(part)
		for r := r0; r < r1; r++ {
			lo, hi := int(runStart[r]), int(runStart[r+1])
			ws := ix.candidateRuns(wins[w][:0], ix.coords[lo*d:lo*d+d], 0, 0, cells, 0)
			// Make room for the run's lists once, doubling the arena when
			// it grows: bound is at least their total length. Cheaper than
			// letting append grow it.
			bound := 0
			for _, win := range ws {
				bound += min(int(win.hi-win.lo), int(2*win.reach+1))
			}
			if bound *= hi - lo; cap(part)-len(part) < bound {
				part = slices.Grow(part, max(bound, len(part)))
			}
			for c := lo; c < hi; c++ {
				v := ix.coords[c*d+d-1]
				n := len(part)
				for k := range ws {
					win := &ws[k]
					for win.end < win.hi && ix.coords[int(win.end)*d+d-1] <= v+win.reach {
						win.end++
					}
					for win.lo < win.end && ix.coords[int(win.lo)*d+d-1] < v-win.reach {
						win.lo++
					}
					for q := win.lo; q < win.end; q++ {
						part = append(part, q)
					}
				}
				ix.adjOff[c+1] = int32(len(part) - n)
			}
			wins[w] = ws
		}
		arenas[w] = part
		spans[g] = span{w, from, len(part)}
	})
	for c := 0; c < cells; c++ {
		ix.adjOff[c+1] += ix.adjOff[c]
	}
	if groups == 1 {
		ix.adj = arenas[0]
		return
	}
	ix.adj = make([]int32, 0, ix.adjOff[cells])
	for _, sp := range spans {
		ix.adj = append(ix.adj, arenas[sp.w][sp.lo:sp.hi]...)
	}
}

// window is one candidate run of a run's cells: the table range [lo, hi) of
// cells sharing a coordinate prefix at levels 0..d−2, and reach, the largest
// last-axis offset at which a cell of the range can still hold an ε-neighbour.
// [lo, end) is the current cell's neighbours in it; both ends only move
// forward as the run's last coordinate rises.
type window struct {
	lo, end, hi int32
	reach       int64
}

// candidateRuns walks one level of the implicit grid-tree for the coordinate
// prefix cc[:d−1]: within the sorted cell range [lo, hi) (all sharing a
// coordinate prefix above level), the values at this level form sorted runs.
// It binary-searches the window [cc[level]−r, cc[level]+r], accumulates each
// run's per-axis minimum gap into acc2 and recurses while the accumulated
// distance can still reach ε. At level d−1 the range is one candidate run,
// appended to dst with the reach its acc2 leaves.
func (ix *index) candidateRuns(dst []window, cc []int64, level, lo, hi int, acc2 float64) []window {
	if level == ix.dim-1 {
		return append(dst, window{int32(lo), int32(lo), int32(hi), ix.reach(acc2)})
	}
	i := ix.lowerBound(level, lo, hi, cc[level]-ix.r)
	for i < hi {
		v := ix.coords[i*ix.dim+level]
		if v > cc[level]+ix.r {
			break
		}
		j := ix.runEnd(level, i, hi)
		if a2 := ix.gapAcc(acc2, v-cc[level]); a2 <= ix.cut {
			dst = ix.candidateRuns(dst, cc, level+1, i, j, a2)
		}
		i = j
	}
	return dst
}

// gapAcc adds to acc2 the squared minimum gap between the coordinates of two
// cells dv apart on one axis: (|dv|−1)·side, or nothing for the same value.
func (ix *index) gapAcc(acc2 float64, dv int64) float64 {
	if dv < 0 {
		dv = -dv
	}
	if dv > 0 {
		g := float64(dv-1) * ix.side
		acc2 += g * g
	}
	return acc2
}

// reach is the largest last-axis offset t ≤ r with gapAcc(acc2, t) within
// the cutoff. gapAcc grows with |dv|, so the offsets that pass are exactly
// those up to reach.
func (ix *index) reach(acc2 float64) int64 {
	t := int64(0)
	for t < ix.r && ix.gapAcc(acc2, t+1) <= ix.cut {
		t++
	}
	return t
}

// touching reports whether cells a and b are at most one apart on every
// axis.
func (ix *index) touching(a, b int) bool {
	d := ix.dim
	ca, cb := ix.coords[a*d:a*d+d], ix.coords[b*d:b*d+d]
	for j, v := range ca {
		if uint64(v-cb[j]+1) > 2 { // v−cb[j] ∉ {−1, 0, 1}
			return false
		}
	}
	return true
}

// runEnd returns the end of the run of equal values at this level that
// starts at i, within the sorted range [i, hi). It gallops from i: runs are
// short next to the ranges they sit in.
func (ix *index) runEnd(level, i, hi int) int {
	v := ix.coords[i*ix.dim+level]
	b := i + 1 // [i, b) holds v
	for step := 1; ; step *= 2 {
		e := min(b+step, hi)
		if e == b || ix.coords[(e-1)*ix.dim+level] > v {
			return ix.lowerBound(level, b, e, v+1)
		}
		b = e
	}
}

// lowerBound returns the first index k in [lo, hi) whose coordinate at the
// given level is ≥ v. The range must be sorted at that level, which every
// equal-prefix range of the lexicographically sorted table is.
func (ix *index) lowerBound(level, lo, hi int, v int64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.coords[m*ix.dim+level] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// neighborsInto appends to dst the position (not original id) of every point
// strictly within ε of position p — p itself included — and returns the
// grown dst plus the number of candidate rows scanned. One call per queried
// point: it walks p's precomputed adjacent cells and hands each contiguous
// block to the dimension-specialized kernel scan. Appended positions ascend
// (cells ascend, positions ascend within a cell).
//
// The scan stops after the first adjacent cell that brings dst to limit
// entries, so the hits are a prefix of the full answer holding at least limit
// of them, or the whole answer when it has fewer. Core marking passes minPts;
// border assignment, which needs every core neighbour, passes math.MaxInt.
//
//mulint:noalloc per-point neighbor-scan leaf; static twin of the cell TestNeighborsIntoZeroAllocs AllocsPerRun gate
func (ix *index) neighborsInto(dst []int, p, limit int) ([]int, int) {
	row := ix.set.Row(p)
	scanned := 0
	c := int(ix.cellOf[p])
	for _, nc := range ix.adj[ix.adjOff[c]:ix.adjOff[c+1]] {
		lo, hi := int(ix.start[nc]), int(ix.start[nc+1])
		dst = geom.AppendWithinBlock(dst, ix.posIDs[lo:hi], ix.set.Block(lo, hi), ix.dim, row, ix.eps2, false)
		scanned += hi - lo
		if len(dst) >= limit {
			break
		}
	}
	return dst, scanned
}

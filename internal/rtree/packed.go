package rtree

import (
	"math"

	"mudbscan/internal/geom"
)

// Packed is a forest of immutable R-trees laid out in four flat slices. A
// node is a number, a tree is the number of its root, and the trees of a
// forest share the slices, so an index of m trees is a handful of heap
// objects whatever m is. The tree a BulkLoad returns is a forest of one,
// rooted at node 0.
//
// Children of an inner node are consecutive nodes and the rows of a leaf are
// consecutive rows, so a node is a (first, count) range and a sphere walk
// tests a node's child boxes in one straight loop over boxes. Queries are
// read-only and safe for concurrent use.
type Packed struct {
	dim        int
	maxEntries int
	nodes      []pnode
	boxes      []float64 // node k's box: dim minima from 2·dim·k, then dim maxima
	rows       []float64 // leaf rows, dim coordinates each; NewForest's caller's block
	ids        []int     // ids[r] identifies row r
}

// pnode is one node: the range of its children, or of its rows.
type pnode struct {
	first int32 // a leaf's first row, an inner node's first child
	count int32 // a leaf's rows; minus the children of an inner node
}

// Len returns the number of stored points, over all trees.
func (f *Packed) Len() int { return len(f.ids) }

func (f *Packed) box(n int32) []float64 {
	w := 2 * f.dim
	return f.boxes[int(n)*w : int(n)*w+w]
}

// boundRows makes box the tightest one around a non-empty block of rows. A
// NaN coordinate makes both bounds of its axis NaN, whichever row holds it:
// a box must not claim to contain a row it does not (see boxDistSq).
func boundRows(box, rows []float64, dim int) {
	mins, maxs := box[:dim], box[dim:]
	copy(mins, rows)
	copy(maxs, rows)
	for o := dim; o < len(rows); o += dim {
		for k, v := range rows[o : o+dim] {
			if v < mins[k] || v != v {
				mins[k] = v
			}
			if v > maxs[k] || v != v {
				maxs[k] = v
			}
		}
	}
}

// extendBox grows box to cover other, NaN bounds included.
func extendBox(box, other []float64, dim int) {
	for k := 0; k < dim; k++ {
		if lo := other[k]; lo < box[k] || lo != lo {
			box[k] = lo
		}
		if hi := other[dim+k]; hi > box[dim+k] || hi != hi {
			box[dim+k] = hi
		}
	}
}

// OverlapsRegion reports whether the bounding box of the tree rooted at root
// overlaps the axis-aligned cube of half-width r centred at p: the
// per-micro-cluster filter in front of every auxiliary-tree search.
//
//mulint:noalloc pure arithmetic; runs under the mc *Into AllocsPerRun gates
func (f *Packed) OverlapsRegion(root int32, p geom.Point, r float64) bool {
	box := f.box(root)
	mins, maxs := box[:len(p)], box[len(p):]
	for i, v := range p {
		if mins[i] > v+r || v-r > maxs[i] {
			return false
		}
	}
	return true
}

// minDistSq is geom.MBR.MinDistSq on a packed box: the squared distance from
// p to the nearest point of the box, 0 inside it. (Viewing the box as a
// geom.MBR and calling the method costs the walk two slice headers a child:
// +40 … +65 % a query at d ≤ 3, measured.)
//
//mulint:noalloc pure arithmetic; runs under every SphereInto AllocsPerRun gate
func minDistSq(box []float64, p geom.Point) float64 {
	mins, maxs := box[:len(p)], box[len(p):]
	var s float64
	for i, v := range p {
		switch {
		case v < mins[i]:
			d := mins[i] - v
			s += d * d
		case v > maxs[i]:
			d := v - maxs[i]
			s += d * d
		}
	}
	return s
}

// SphereInto appends to dst the ids of every point of the tree rooted at
// node 0 strictly within r of center (or within the closed ball when strict
// is false) and returns the extended slice plus the number of point-distance
// computations, which the benchmarks use as the query-cost metric. Hits
// arrive in tree order. The query performs zero allocations once dst has
// warmed to the neighborhood size, which is what lets the clustering loops
// run allocation-free in steady state.
//
// It is the plain walk: every row of every leaf the walk reaches is a
// distance computed (SphereIDsIntoAt is the one that skips them for whole
// nodes).
//
//mulint:noalloc static twin of TestSphereIntoZeroAllocs (sphereinto_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (f *Packed) SphereInto(center geom.Point, r float64, strict bool, dst []int) ([]int, int) {
	return f.SphereDistIntoAt(0, center, r, strict, dst, nil)
}

// SphereDistIntoAt is SphereInto on the tree rooted at root, with a second
// output: when dist is non-nil, the squared distance of every hit is appended
// to *dist in step with dst — the same walk and the same leaf scan, with the
// scan's d² sink on.
//
//mulint:noalloc static twin of TestSphereDistIntoZeroAllocs (sphereinto_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (f *Packed) SphereDistIntoAt(root int32, center geom.Point, r float64, strict bool, dst []int, dist *[]float64) ([]int, int) {
	if len(f.nodes) == 0 {
		return dst, 0
	}
	var q sphereQuery // stays in this frame: the walk keeps no reference to it
	q.center, q.r2, q.closed, q.dist = center, r*r, !strict, dist
	return f.sphereInto(root, &q, dst)
}

// SphereIDsIntoAt is the id-only SphereDistIntoAt with the whole-node cut: a
// node whose box lies inside the ball — its farthest corner within r, by the
// margin wholeSlack — hands over the ids of its subtree without a distance
// computed. So does the root, unless it is a leaf of one row, whose corner
// test would be its one distance. The ids and their order are the plain
// walk's: the plain walk reaches every leaf of such a node and every row there
// is a hit. It returns the extended slice, the distances computed and the
// rows emitted wholesale; the two counts add up to the plain walk's count.
//
//mulint:noalloc static twin of TestSphereIDsIntoZeroAllocs (sphereinto_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (f *Packed) SphereIDsIntoAt(root int32, center geom.Point, r float64, strict bool, dst []int) (_ []int, calcs, emitted int) {
	if len(f.nodes) == 0 {
		return dst, 0, 0
	}
	var q sphereQuery
	q.center, q.r2, q.closed, q.whole = center, r*r, !strict, true
	q.lim = math.NaN() // no node is inside: the δ argument does not hold
	if q.r2 > 0x1p-900 && q.r2 < 0x1p900 && f.dim < 1<<20 {
		q.lim = q.r2 * (1 - wholeSlack)
	}
	if f.nodes[root].count != 1 {
		if _, far := boxDistSq(f.box(root), center); q.inside(far) {
			n := len(dst)
			dst = f.appendSubtree(root, dst)
			return dst, 0, len(dst) - n
		}
	}
	dst, calcs = f.sphereInto(root, &q, dst)
	return dst, calcs, q.emitted
}

// wholeSlack is δ, the relative margin by which a box's farthest corner must
// clear r² before SphereIDsIntoAt emits the box's rows without their
// distances. The corner sum and a member's kernel sum are each off by less
// than (d+1)·2⁻⁵³ of themselves, however the compiler contracts them into
// fused multiply-adds, and every term of the corner sum is at least the
// member's (see boxDistSq); so a corner within r²(1−δ) puts every member's
// rounded distance, and every rounded minimum distance of a box under it,
// strictly below r² while (2d+3)·2⁻⁵³ < δ — for every d < 2²⁰ (DESIGN.md §8,
// the whole-node cut). It is internal/core's pruneSlack, for the same reason.
const wholeSlack = 1e-9

// sphereQuery is what a sphere walk carries down. It travels as one pointer
// into the caller's frame: passed by value its fields no longer fit the
// argument registers once the d² sink is among them, and every node visit
// paid for the spill.
type sphereQuery struct {
	center geom.Point
	r2     float64
	closed bool
	dist   *[]float64 // the leaf scans' d² sink; nil for an id-only query

	// The whole-node cut, on for SphereIDsIntoAt alone: a child whose
	// farthest corner is inside lim (r²(1−δ); NaN when the δ argument does
	// not hold) is emitted wholesale, and emitted counts its rows.
	whole   bool
	lim     float64
	emitted int
}

// inside reports whether a corner at squared distance far lies inside the
// ball by the margin: strictly inside lim, or on it for a closed ball. NaN is
// never inside.
func (q *sphereQuery) inside(far float64) bool {
	return far < q.lim || q.closed && far == q.lim
}

//mulint:noalloc recursive walk under SphereInto's, SphereDistIntoAt's and SphereIDsIntoAt's contracts (and gates)
func (f *Packed) sphereInto(n int32, q *sphereQuery, dst []int) ([]int, int) {
	nd := f.nodes[n]
	if nd.count > 0 {
		lo, hi := int(nd.first), int(nd.first+nd.count)
		return geom.AppendWithinBlockDist(dst, q.dist, f.ids[lo:hi], f.rows[lo*f.dim:hi*f.dim], f.dim, q.center, q.r2, q.closed), int(nd.count)
	}
	calcs := 0
	for c, end := nd.first, nd.first-nd.count; c < end; c++ {
		if q.whole {
			// One read of the box gives both sums.
			near, far := boxDistSq(f.box(c), q.center)
			if !(near <= q.r2) {
				continue
			}
			if q.inside(far) {
				k := len(dst)
				dst = f.appendSubtree(c, dst)
				q.emitted += len(dst) - k
				continue
			}
		} else if !(minDistSq(f.box(c), q.center) <= q.r2) {
			continue
		}
		var k int
		dst, k = f.sphereInto(c, q, dst)
		calcs += k
	}
	return dst, calcs
}

// boxDistSq returns minDistSq(box, p), bit for bit, and far, the squared
// distance from p to the box's farthest corner: per axis the larger of
// fl(p − min) and fl(max − p). Box bounds are member coordinates and rounding
// is monotone, so for every member x that term is at least |fl(x − p)|, the
// kernel's own term; NaN anywhere (a NaN axis of the box or of p) makes far
// NaN. Rounding is also symmetric, so fl(p − min)², when p is below min, is
// minDistSq's fl(min − p)².
//
//mulint:noalloc pure arithmetic; runs under TestSphereIDsIntoZeroAllocs
func boxDistSq(box []float64, p geom.Point) (near, far float64) {
	mins, maxs := box[:len(p)], box[len(p):]
	for i, v := range p {
		a, b := v-mins[i], maxs[i]-v
		if a < 0 {
			near += a * a
		} else if b < 0 {
			near += b * b
		}
		e := max(a, b)
		far += e * e
	}
	return near, far
}

// appendSubtree appends the ids of every row under node n, leaf by leaf in
// child order: the order the plain walk's leaf scans would put them in. A
// subtree's rows are not one range of rows — the packer sorts each level
// after tiling — so it descends.
//
//mulint:noalloc appends into the caller's buffer only; runs under TestSphereIDsIntoZeroAllocs
func (f *Packed) appendSubtree(n int32, dst []int) []int {
	nd := f.nodes[n]
	if nd.count > 0 {
		return append(dst, f.ids[nd.first:nd.first+nd.count]...)
	}
	for c, end := nd.first, nd.first-nd.count; c < end; c++ {
		dst = f.appendSubtree(c, dst)
	}
	return dst
}

// Freeze lays a grown tree out as a Packed one, node for node: the same
// boxes, the same children in the same order (breadth-first numbering keeps
// siblings consecutive), the same rows in every leaf — so a sphere walk
// visits what a walk of t would have, in the same order. It is test support
// only: the Tree has no query of its own, so this is how the tests hold a
// grown tree (the benchmark's grown-tree probe builds the same kind) to brute
// force. t is only read.
func Freeze(t *Tree) *Packed {
	f := &Packed{dim: t.dim, maxEntries: t.maxEntries}
	if t.size == 0 {
		return f
	}
	queue := []*node{t.root}
	for i := 0; i < len(queue); i++ {
		queue = append(queue, queue[i].children...)
	}
	f.alloc(len(queue), t.size)
	child, row := int32(1), 0
	for i, n := range queue {
		box := f.box(int32(i))
		copy(box, n.mbr.Min)
		copy(box[f.dim:], n.mbr.Max)
		if n.leaf {
			f.nodes[i] = pnode{first: int32(row), count: int32(len(n.ids))}
			copy(f.rows[row*f.dim:], n.coords)
			copy(f.ids[row:], n.ids)
			row += len(n.ids)
			continue
		}
		f.nodes[i] = pnode{first: child, count: -int32(len(n.children))}
		child += int32(len(n.children))
	}
	return f
}

func (f *Packed) alloc(nodes, rows int) {
	f.nodes = make([]pnode, nodes)
	f.boxes = make([]float64, 2*f.dim*nodes)
	f.rows = make([]float64, f.dim*rows)
	f.ids = make([]int, rows)
}

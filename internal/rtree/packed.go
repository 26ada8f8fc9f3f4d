package rtree

import "mudbscan/internal/geom"

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
	rows       []float64 // leaf rows, dim coordinates each
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

// boundRows makes box the tightest one around a non-empty block of rows.
func boundRows(box, rows []float64, dim int) {
	mins, maxs := box[:dim], box[dim:]
	copy(mins, rows)
	copy(maxs, rows)
	for o := dim; o < len(rows); o += dim {
		for k, v := range rows[o : o+dim] {
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
}

// extendBox grows box to cover other.
func extendBox(box, other []float64, dim int) {
	for k := 0; k < dim; k++ {
		if other[k] < box[k] {
			box[k] = other[k]
		}
		if other[dim+k] > box[dim+k] {
			box[dim+k] = other[dim+k]
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

// sphereQuery is what a sphere walk carries down unchanged. It travels as
// one pointer into the caller's frame: passed by value its fields no longer
// fit the argument registers once the d² sink is among them, and every node
// visit paid for the spill.
type sphereQuery struct {
	center geom.Point
	r2     float64
	closed bool
	dist   *[]float64 // the leaf scans' d² sink; nil for an id-only query
}

//mulint:noalloc recursive walk under SphereInto's and SphereDistIntoAt's contracts (and gates)
func (f *Packed) sphereInto(n int32, q *sphereQuery, dst []int) ([]int, int) {
	nd := f.nodes[n]
	if nd.count > 0 {
		lo, hi := int(nd.first), int(nd.first+nd.count)
		return geom.AppendWithinBlockDist(dst, q.dist, f.ids[lo:hi], f.rows[lo*f.dim:hi*f.dim], f.dim, q.center, q.r2, q.closed), int(nd.count)
	}
	calcs := 0
	for c, end := nd.first, nd.first-nd.count; c < end; c++ {
		if minDistSq(f.box(c), q.center) <= q.r2 {
			var k int
			dst, k = f.sphereInto(c, q, dst)
			calcs += k
		}
	}
	return dst, calcs
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

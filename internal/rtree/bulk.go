package rtree

import (
	"math"
	"slices"

	"mudbscan/internal/geom"
)

// BulkLoad builds a packed R-tree over pts using Sort-Tile-Recursive packing
// (Leutenegger et al.). ids[i] is the identifier stored for pts[i]; when ids
// is nil the point index is used. Bulk loading produces trees with far less
// node overlap than repeated insertion, which matters for trees that are
// built once and then only queried.
func BulkLoad(dim, maxEntries int, pts []geom.Point, ids []int) *Packed {
	return BulkLoadSet(maxEntries, geom.PointSetFromPoints(dim, pts), ids)
}

// BulkLoadSet is BulkLoad over a contiguous PointSet. The set is only read;
// the tree does not retain it.
func BulkLoadSet(maxEntries int, set *geom.PointSet, ids []int) *Packed {
	n := set.Len()
	if ids != nil && len(ids) != n {
		panic("rtree: BulkLoad ids/pts length mismatch")
	}
	f := NewForest(set.Dim(), maxEntries, NodeCount(n, maxEntries), n)
	if n > 0 {
		f.Packer().Pack(0, 0, set, nil)
	}
	if ids != nil {
		for r, i := range f.ids {
			f.ids[r] = ids[i]
		}
	}
	return f
}

// NewForest returns a forest with room for exactly nodes nodes and rows
// rows, to be filled by Pack calls on disjoint ranges. The shape of an STR
// tree — NodeCount — depends on its size and the fan-out alone, so a caller
// that knows the sizes of its trees knows where each one goes before any is
// built, and can build them concurrently.
func NewForest(dim, maxEntries, nodes, rows int) *Packed {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	f := &Packed{dim: dim, maxEntries: fanout(maxEntries)}
	f.alloc(nodes, rows)
	return f
}

// NodeCount returns the number of nodes of the STR tree over n points at
// fan-out maxEntries: what tile emits, then one level of ⌈c/M⌉ parents after
// another up to the root.
func NodeCount(n, maxEntries int) int {
	if n == 0 {
		return 0
	}
	m := fanout(maxEntries)
	level := leafCount(n, m)
	total := level
	for level > 1 {
		level = (level + m - 1) / m
		total += level
	}
	return total
}

// leafCount mirrors tile: every slab but the last has the same size.
func leafCount(n, m int) int {
	if n <= m {
		return 1
	}
	size := slabSize(n, m)
	leaves := n / size * leafCount(size, m)
	if rest := n % size; rest > 0 {
		leaves += leafCount(rest, m)
	}
	return leaves
}

// slabSize is STR's cut of n > m points sorted along one axis: ⌈√(leaf
// pages)⌉ slabs of equal size, the last one short.
func slabSize(n, m int) int {
	pages := (n + m - 1) / m
	slabs := int(math.Ceil(math.Sqrt(float64(pages))))
	return (n + slabs - 1) / slabs
}

// Packer builds trees into a forest. It owns the scratch a build needs, so
// each goroutine packing into the same forest uses its own.
type Packer struct {
	f    *Packed
	src  []float64 // the rows being packed, contiguous
	next int       // next free row of the forest

	gathered []float64 // backs src when the rows had to be collected
	order    []keyed
	level    []pnode   // one tree level in the order it was generated,
	levelBox []float64 // before the sort that orders it among its siblings
}

// keyed is one entry of an STR sort: the key is read out once, so the sort
// compares two floats side by side and not two rows somewhere in the set.
type keyed struct {
	key float64
	at  int32
}

func byKey(a, b keyed) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// Packer returns a Packer for f.
func (f *Packed) Packer() *Packer { return &Packer{f: f} }

// Pack builds the STR tree over rows pick of set, each identified by its row
// number (all rows when pick is nil), into nodes [node, node+NodeCount) and
// rows [row, row+n) of the forest, root at node.
//
// Sort-Tile-Recursive: sort along one axis, cut into slabs, recurse into each
// slab along the next axis down to leaf-sized runs; then sort each level by
// box centre, cycling the axis, and put consecutive nodes under one parent,
// until one node is left.
func (p *Packer) Pack(node, row int32, set *geom.PointSet, pick []int32) {
	f, dim := p.f, p.f.dim
	p.next = int(row)
	if pick == nil {
		p.src = set.Data()
	} else {
		// Gather, then sort: the sorts read their keys out of a block of
		// this tree's rows alone, not through pick into a set that may be a
		// thousand times its size.
		p.src = slices.Grow(p.gathered[:0], len(pick)*dim)
		for _, r := range pick {
			p.src = append(p.src, set.Row(int(r))...)
		}
		p.gathered = p.src
	}
	n := len(p.src) / dim
	p.order = slices.Grow(p.order[:0], n)[:n]
	for j := range p.order {
		p.order[j].at = int32(j)
	}
	p.level, p.levelBox = p.level[:0], p.levelBox[:0]
	p.tile(pick, p.order, 0)

	// Levels are laid out root first, so the leaves end the tree's range.
	m := f.maxEntries
	w := 2 * dim
	at := node + int32(NodeCount(n, m))
	for axis := 0; len(p.level) > 1; axis = (axis + 1) % dim {
		c := len(p.level)
		at -= int32(c)
		// The sort key is box centre ×2: same order, no division.
		keys := p.order[:c]
		for i := range keys {
			keys[i] = keyed{key: p.levelBox[i*w+axis] + p.levelBox[i*w+dim+axis], at: int32(i)}
		}
		slices.SortFunc(keys, byKey)
		for rank, k := range keys {
			f.nodes[int(at)+rank] = p.level[k.at]
			copy(f.box(at+int32(rank)), p.levelBox[int(k.at)*w:int(k.at)*w+w])
		}
		parents := 0
		for g := 0; g < c; g += m {
			children := min(m, c-g)
			first := at + int32(g)
			p.level[parents] = pnode{first: first, count: -int32(children)}
			box := p.levelBox[parents*w : parents*w+w]
			copy(box, f.box(first))
			for k := 1; k < children; k++ {
				extendBox(box, f.box(first+int32(k)), dim)
			}
			parents++
		}
		p.level, p.levelBox = p.level[:parents], p.levelBox[:parents*w]
	}
	if at != node+1 {
		panic("rtree: NodeCount disagrees with the packer")
	}
	f.nodes[node] = p.level[0]
	copy(f.box(node), p.levelBox)
}

// tile recursively tiles order (rows of src; pick names them in the set) along
// axis and emits the packed leaves: rows into the forest, node and box onto
// the pending level.
func (p *Packer) tile(pick []int32, order []keyed, axis int) {
	f, dim := p.f, p.f.dim
	n := len(order)
	if n <= f.maxEntries {
		first := p.next
		for _, o := range order {
			copy(f.rows[p.next*dim:], p.src[int(o.at)*dim:int(o.at)*dim+dim])
			f.ids[p.next] = int(o.at)
			if pick != nil {
				f.ids[p.next] = int(pick[o.at])
			}
			p.next++
		}
		p.level = append(p.level, pnode{first: int32(first), count: int32(n)})
		k := len(p.levelBox)
		p.levelBox = slices.Grow(p.levelBox, 2*dim)[:k+2*dim]
		boundRows(p.levelBox[k:], f.rows[first*dim:p.next*dim], dim)
		return
	}
	for i := range order {
		order[i].key = p.src[int(order[i].at)*dim+axis]
	}
	slices.SortFunc(order, byKey)
	size := slabSize(n, f.maxEntries)
	for start := 0; start < n; start += size {
		p.tile(pick, order[start:min(start+size, n)], (axis+1)%dim)
	}
}

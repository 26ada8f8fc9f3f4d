package rtree

import (
	"cmp"
	"math"
	"sort"

	"mudbscan/internal/geom"
)

// The pointer-tree STR loader and sphere walk the package had before the
// trees were packed, kept as the reference the packed ones are held to:
// same leaves, same hit order, same distances, same distance count. It fully
// sorts every slab and every level in the packer's order — by key, NaN first
// as cmp.Compare places it, ties by row (a level: by position, i.e. stably) —
// so it also holds the packer's selection to the full sort it stands for.

func refBulkLoad(dim, maxEntries int, pts []geom.Point, ids []int) *Tree {
	return refBulkLoadSet(maxEntries, geom.PointSetFromPoints(dim, pts), ids)
}

func refBulkLoadSet(maxEntries int, set *geom.PointSet, ids []int) *Tree {
	t := New(set.Dim(), maxEntries)
	n := set.Len()
	if n == 0 {
		return t
	}
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	level := t.refStrPack(set, ids, order, 0)
	for axis := 0; len(level) > 1; axis = (axis + 1) % t.dim {
		level = t.refPackNodes(level, axis)
	}
	t.root = level[0]
	t.size = n
	return t
}

func (t *Tree) refStrPack(set *geom.PointSet, ids, order []int, axis int) []*node {
	n := len(order)
	if n <= t.maxEntries {
		leaf := &node{leaf: true}
		for _, i := range order {
			leaf.coords = append(leaf.coords, set.Row(i)...)
			leaf.ids = append(leaf.ids, ids[i])
		}
		leaf.mbr = geom.MBRFromBlock(leaf.coords, t.dim)
		return []*node{leaf}
	}
	sort.Slice(order, func(a, b int) bool {
		if c := cmp.Compare(set.Coord(order[a], axis), set.Coord(order[b], axis)); c != 0 {
			return c < 0
		}
		return order[a] < order[b]
	})
	numLeaves := (n + t.maxEntries - 1) / t.maxEntries
	slabs := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	slabSize := (n + slabs - 1) / slabs
	var leaves []*node
	for start := 0; start < n; start += slabSize {
		leaves = append(leaves, t.refStrPack(set, ids, order[start:min(start+slabSize, n)], (axis+1)%t.dim)...)
	}
	return leaves
}

func (t *Tree) refPackNodes(level []*node, axis int) []*node {
	sort.SliceStable(level, func(a, b int) bool {
		ma, mb := level[a].mbr, level[b].mbr
		return cmp.Compare(ma.Min[axis]+ma.Max[axis], mb.Min[axis]+mb.Max[axis]) < 0
	})
	var parents []*node
	for start := 0; start < len(level); start += t.maxEntries {
		p := &node{children: append([]*node(nil), level[start:min(start+t.maxEntries, len(level))]...)}
		p.mbr = mbrOfChildren(p.children)
		parents = append(parents, p)
	}
	return parents
}

// refSphereDistInto is the pointer tree's sphere walk.
func refSphereDistInto(t *Tree, center geom.Point, r float64, strict bool, dst []int, dist *[]float64) ([]int, int) {
	if t.size == 0 {
		return dst, 0
	}
	return t.refSphere(t.root, center, r*r, !strict, dst, dist)
}

func (t *Tree) refSphere(n *node, center geom.Point, r2 float64, closed bool, dst []int, dist *[]float64) ([]int, int) {
	if n.leaf {
		return geom.AppendWithinBlockDist(dst, dist, n.ids, n.coords, t.dim, center, r2, closed), len(n.ids)
	}
	calcs := 0
	for _, c := range n.children {
		if c.mbr.MinDistSq(center) <= r2 {
			var k int
			dst, k = t.refSphere(c, center, r2, closed, dst, dist)
			calcs += k
		}
	}
	return dst, calcs
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

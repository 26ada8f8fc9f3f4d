// Package rtree implements in-memory R-trees (Guttman, SIGMOD'84) over
// d-dimensional points. It backs the classic R-DBSCAN baseline and the
// second level of the paper's two-level μR-tree: the auxiliary trees, each
// over the points of one micro-cluster (the first level, over the centres, is
// internal/mc's hashed grid).
//
// There are two types, for the two lives a tree can have. Packed is what the
// system reads: an immutable forest of Sort-Tile-Recursive bulk-loaded trees
// in four flat slices — nodes addressed by number, boxes stored side by side
// so a node's children are tested in one loop, leaf rows in one contiguous
// row-major block scanned by a dimension-specialized kernel (geom) — so that
// all the trees of an index are a handful of heap objects. SphereInto,
// allocation-free into a caller-owned id buffer, is its only range query;
// queries are read-only and safe for concurrent use.
//
// Tree is the dynamic one: Guttman insertion with quadratic splits. No query
// path of the system grows one any more — every tree it reads is bulk-loaded
// — and it stays only as the subject of the benchmark harness's grown-tree
// probe (insertion cost and height) and of the tests that hold that probe's
// trees to brute force through Freeze. It has no query of its own.
package rtree

import (
	"fmt"

	"mudbscan/internal/geom"
)

// DefaultMaxEntries is the default node fan-out M.
const DefaultMaxEntries = 16

// Tree is a dynamic R-tree over points. Each stored point carries an integer
// id chosen by the caller (typically an index into the caller's dataset).
// See the package comment for why it is kept: Insert and the splits are what
// the benchmark's grown-tree probe times, Height what it reports.
type Tree struct {
	dim        int
	root       *node
	size       int
	maxEntries int
	minEntries int
}

type node struct {
	mbr      geom.MBR
	leaf     bool
	children []*node
	// Leaf payload: coords holds len(ids) rows of dim coordinates each,
	// row-major and contiguous; ids[i] identifies row i.
	coords []float64
	ids    []int
}

// New returns an empty R-tree for points of dimensionality dim with node
// fan-out maxEntries (use 0 for DefaultMaxEntries). Its callers are the
// benchmark's grown-tree probe and this package's tests; the system itself
// builds every tree it reads with BulkLoad or a Packer.
func New(dim, maxEntries int) *Tree {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	maxEntries = fanout(maxEntries)
	t := &Tree{
		dim:        dim,
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
	}
	if t.minEntries < 2 {
		t.minEntries = 2
	}
	t.root = &node{leaf: true, mbr: geom.NewMBR(dim)}
	return t
}

// fanout resolves a requested node capacity: 0 means DefaultMaxEntries, and
// a node holds at least 4 entries.
func fanout(maxEntries int) int {
	if maxEntries <= 0 {
		return DefaultMaxEntries
	}
	return max(maxEntries, 4)
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.size }

// row returns the coordinate view of leaf row i (capacity-capped so callers
// cannot append through it into the next row).
func (t *Tree) row(n *node, i int) geom.Point {
	o := i * t.dim
	return geom.Point(n.coords[o : o+t.dim : o+t.dim])
}

// Insert adds point p with identifier id. The coordinates are copied into
// the leaf's contiguous block; the caller keeps ownership of p. It is the
// cost the benchmark's grown-tree probe measures (rtree.insert_ns_per_pt).
func (t *Tree) Insert(id int, p geom.Point) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("rtree: inserting %d-dim point into %d-dim tree", len(p), t.dim))
	}
	split := t.insert(t.root, id, p)
	if split != nil {
		old := t.root
		t.root = &node{
			leaf:     false,
			children: []*node{old, split},
			mbr:      old.mbr.Clone(),
		}
		t.root.mbr.Extend(split.mbr)
	}
	t.size++
}

// insert recursively places (id, p) under n, returning a new sibling if n was
// split.
func (t *Tree) insert(n *node, id int, p geom.Point) *node {
	if n.mbr.IsEmpty() {
		n.mbr = geom.MBRFromPoint(p)
	} else {
		n.mbr.ExtendPoint(p)
	}
	if n.leaf {
		n.coords = append(n.coords, p...)
		n.ids = append(n.ids, id)
		if len(n.ids) > t.maxEntries {
			return t.splitLeaf(n)
		}
		return nil
	}
	child := chooseSubtree(n.children, p)
	split := t.insert(child, id, p)
	if split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.maxEntries {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose MBR needs the least area enlargement to
// cover p, breaking ties by smaller area.
func chooseSubtree(children []*node, p geom.Point) *node {
	best := children[0]
	bestEnl, bestArea := pointEnlargement(best.mbr, p)
	for _, c := range children[1:] {
		enl, area := pointEnlargement(c.mbr, p)
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// pointEnlargement returns the area growth of m if extended to cover p, and
// m's current area, without allocating. This sits on the hot path of every
// insertion (once per child per level).
func pointEnlargement(m geom.MBR, p geom.Point) (enl, area float64) {
	grown := 1.0
	area = 1.0
	for i := range m.Min {
		lo, hi := m.Min[i], m.Max[i]
		area *= hi - lo
		if p[i] < lo {
			lo = p[i]
		}
		if p[i] > hi {
			hi = p[i]
		}
		grown *= hi - lo
	}
	return grown - area, area
}

// splitLeaf performs a quadratic split of an overfull leaf, leaving one group
// in n and returning the other as a new node.
func (t *Tree) splitLeaf(n *node) *node {
	dim := t.dim
	boxes := make([]geom.MBR, len(n.ids))
	for i := range boxes {
		boxes[i] = geom.MBRFromPoint(t.row(n, i))
	}
	g1, g2 := t.quadraticSplit(boxes)
	coords, ids := n.coords, n.ids
	n.coords = make([]float64, 0, len(g1)*dim)
	n.ids = make([]int, 0, len(g1))
	sib := &node{leaf: true}
	sib.coords = make([]float64, 0, len(g2)*dim)
	sib.ids = make([]int, 0, len(g2))
	for _, i := range g1 {
		n.coords = append(n.coords, coords[i*dim:(i+1)*dim]...)
		n.ids = append(n.ids, ids[i])
	}
	for _, i := range g2 {
		sib.coords = append(sib.coords, coords[i*dim:(i+1)*dim]...)
		sib.ids = append(sib.ids, ids[i])
	}
	n.mbr = geom.MBRFromBlock(n.coords, dim)
	sib.mbr = geom.MBRFromBlock(sib.coords, dim)
	return sib
}

// splitInternal performs a quadratic split of an overfull internal node.
func (t *Tree) splitInternal(n *node) *node {
	boxes := make([]geom.MBR, len(n.children))
	for i, c := range n.children {
		boxes[i] = c.mbr
	}
	g1, g2 := t.quadraticSplit(boxes)
	children := n.children
	n.children = make([]*node, 0, len(g1))
	sib := &node{leaf: false}
	sib.children = make([]*node, 0, len(g2))
	for _, i := range g1 {
		n.children = append(n.children, children[i])
	}
	for _, i := range g2 {
		sib.children = append(sib.children, children[i])
	}
	n.mbr = mbrOfChildren(n.children)
	sib.mbr = mbrOfChildren(sib.children)
	return sib
}

func mbrOfChildren(children []*node) geom.MBR {
	m := children[0].mbr.Clone()
	for _, c := range children[1:] {
		m.Extend(c.mbr)
	}
	return m
}

// quadraticSplit partitions indices 0..len(boxes)-1 into two groups using
// Guttman's quadratic PickSeeds / PickNext heuristics. Both groups are
// guaranteed at least minEntries members. The splits exist for Insert alone,
// and so for the same probe.
func (t *Tree) quadraticSplit(boxes []geom.MBR) (g1, g2 []int) {
	n := len(boxes)
	// PickSeeds: the pair wasting the most area if grouped together.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := boxes[i].Clone()
			u.Extend(boxes[j])
			waste := u.Area() - boxes[i].Area() - boxes[j].Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	g1 = append(g1, s1)
	g2 = append(g2, s2)
	m1 := boxes[s1].Clone()
	m2 := boxes[s2].Clone()
	assigned := make([]bool, n)
	assigned[s1], assigned[s2] = true, true
	remaining := n - 2
	for remaining > 0 {
		// Force-assign when one group must take all the rest to reach min.
		if len(g1)+remaining == t.minEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					g1 = append(g1, i)
					m1.Extend(boxes[i])
					assigned[i] = true
				}
			}
			break
		}
		if len(g2)+remaining == t.minEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					g2 = append(g2, i)
					m2.Extend(boxes[i])
					assigned[i] = true
				}
			}
			break
		}
		// PickNext: the entry with the greatest preference for one group.
		next, bestDiff := -1, -1.0
		var d1Best, d2Best float64
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			d1 := m1.EnlargementArea(boxes[i])
			d2 := m2.EnlargementArea(boxes[i])
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			// next == -1: a NaN preference (non-finite boxes) never
			// compares greater, and some entry has to be taken.
			if next == -1 || diff > bestDiff {
				bestDiff, next, d1Best, d2Best = diff, i, d1, d2
			}
		}
		switch {
		case d1Best < d2Best:
			g1 = append(g1, next)
			m1.Extend(boxes[next])
		case d2Best < d1Best:
			g2 = append(g2, next)
			m2.Extend(boxes[next])
		case len(g1) <= len(g2):
			g1 = append(g1, next)
			m1.Extend(boxes[next])
		default:
			g2 = append(g2, next)
			m2.Extend(boxes[next])
		}
		assigned[next] = true
		remaining--
	}
	return g1, g2
}

// Height returns the number of levels in the tree (1 for a leaf-only tree):
// the benchmark's rtree.height row.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

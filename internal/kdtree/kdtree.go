// Package kdtree provides a median-split k-d tree over points plus the
// axis-selection and median-selection helpers that the spatial partitioning
// phase of μDBSCAN-D (§V-A of the paper) is built on. The tree itself also
// serves as an alternative point index for the indexing ablation benchmarks.
//
// The tree stores its (reordered) points in one contiguous row-major
// coordinate array (geom.PointSet), so a leaf scan is a linear walk over a
// [lo*d, hi*d) block, and squared distances go through the
// dimension-specialized kernel chosen once at build time.
package kdtree

import (
	"sort"

	"mudbscan/internal/geom"
)

// Tree is a static, median-split k-d tree built once over a point set.
type Tree struct {
	dim    int
	set    *geom.PointSet
	ids    []int
	root   *node
	kernel geom.DistSqKernel
}

type node struct {
	axis        int
	split       float64
	left, right *node
	// leaf payload: index range [lo, hi) into the tree's reordered arrays.
	lo, hi int
	leaf   bool
	mbr    geom.MBR
}

const leafSize = 16

// Build constructs a k-d tree over pts. ids[i] identifies pts[i]; nil means
// the point index. The input slices are copied, so callers may reuse them.
func Build(dim int, pts []geom.Point, ids []int) *Tree {
	if ids != nil && len(ids) != len(pts) {
		panic("kdtree: ids/pts length mismatch")
	}
	return BuildSet(geom.PointSetFromPoints(dim, pts), ids)
}

// BuildSet constructs a k-d tree that takes ownership of set, reordering its
// rows in place during construction. Callers that already hold contiguous
// coordinates avoid the copy Build performs.
func BuildSet(set *geom.PointSet, ids []int) *Tree {
	n := set.Len()
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != n {
		panic("kdtree: ids/pts length mismatch")
	}
	t := &Tree{
		dim:    set.Dim(),
		set:    set,
		ids:    append([]int(nil), ids...),
		kernel: geom.KernelFor(set.Dim()),
	}
	if n > 0 {
		t.root = t.build(0, n)
	}
	return t
}

func (t *Tree) build(lo, hi int) *node {
	n := &node{lo: lo, hi: hi, mbr: geom.MBRFromBlock(t.set.Block(lo, hi), t.dim)}
	if hi-lo <= leafSize {
		n.leaf = true
		return n
	}
	axis := WidestAxisMBR(n.mbr)
	mid := (lo + hi) / 2
	t.selectNth(lo, hi, mid, axis)
	n.axis = axis
	n.split = t.set.Coord(mid, axis)
	n.left = t.build(lo, mid)
	n.right = t.build(mid, hi)
	return n
}

// selectNth partially orders rows [lo, hi) so that the row at position n
// is the one that would be there under a full sort by the given axis
// (quickselect / Hoare's nth_element).
func (t *Tree) selectNth(lo, hi, n, axis int) {
	for hi-lo > 1 {
		pivot := t.set.Coord(lo+(hi-lo)/2, axis)
		i, j := lo, hi-1
		for i <= j {
			for t.set.Coord(i, axis) < pivot {
				i++
			}
			for t.set.Coord(j, axis) > pivot {
				j--
			}
			if i <= j {
				t.set.Swap(i, j)
				t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j + 1
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.set.Len() }

// SphereInto appends to dst the ids of every point with dist < r of center
// (or <= r when strict is false) and returns the extended slice plus the
// number of distance computations. Steady-state queries through a warmed
// dst perform zero allocations.
//
//mulint:noalloc static twin of TestSphereIntoZeroAllocs (sphereinto_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (t *Tree) SphereInto(center geom.Point, r float64, strict bool, dst []int) ([]int, int) {
	if t.root == nil {
		return dst, 0
	}
	return t.sphereInto(t.root, center, r*r, !strict, dst)
}

//mulint:noalloc recursive walk under SphereInto's contract (and gate)
func (t *Tree) sphereInto(n *node, center geom.Point, r2 float64, closed bool, dst []int) ([]int, int) {
	if n.mbr.MinDistSq(center) > r2 {
		return dst, 0
	}
	if n.leaf {
		dst = geom.AppendWithinBlock(dst, t.ids[n.lo:n.hi], t.set.Block(n.lo, n.hi), t.dim, center, r2, closed)
		return dst, n.hi - n.lo
	}
	dst, a := t.sphereInto(n.left, center, r2, closed, dst)
	dst, b := t.sphereInto(n.right, center, r2, closed, dst)
	return dst, a + b
}

// WidestAxisMBR returns the axis with the largest extent of m.
func WidestAxisMBR(m geom.MBR) int {
	axis, best := 0, -1.0
	for i := 0; i < m.Dim(); i++ {
		if w := m.Max[i] - m.Min[i]; w > best {
			best, axis = w, i
		}
	}
	return axis
}

// MedianOfValues returns the lower median of vals (used when medians of
// gathered samples are computed collectively). vals is sorted in place.
func MedianOfValues(vals []float64) float64 {
	if len(vals) == 0 {
		panic("kdtree: MedianOfValues on empty slice")
	}
	sort.Float64s(vals)
	return vals[(len(vals)-1)/2]
}

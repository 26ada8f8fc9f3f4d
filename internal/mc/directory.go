package mc

import (
	"math"
	"math/bits"

	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
)

// centerDirectory answers the three centre probes of Algorithm 3's scan.
// Both implementations decide membership with the geom kernel and break
// nearest ties with rtree.Nearer, so the micro-cluster set a scan produces
// does not depend on which one served it.
type centerDirectory interface {
	// nearest returns the micro-cluster whose centre is closest to p among
	// those strictly within r, ties to the smaller id.
	nearest(p geom.Point, r float64) (mcID int, ok bool)
	// any reports whether some centre lies strictly within r of p.
	any(p geom.Point, r float64) bool
	// insert records the centre of micro-cluster mcID; ids arrive in order
	// 0, 1, 2, ….
	insert(mcID int, center geom.Point)
	// tree returns the first-level μR-tree over the centres inserted so far.
	// The directory is not used afterwards.
	tree() *rtree.Packed
}

// gridMaxDim is the highest dimensionality served by the hashed grid; above
// it the scan keeps the dynamic R-tree. A probe visits up to 2^d cells
// whatever m is, the tree's cost grows with m, so the threshold is where 2^d
// lookups stop beating a small tree. It is a constant of dim alone, set by
// measurement (step 1 = Add + Finish, tree → grid, 2 vCPUs):
//
//	d = 3  GalaxyLike(100000, 3, 5), ε = 2, m = 8 866       0.57 s → 0.10 s
//	d = 3  HouseholdLike(120000, 3, 1), ε = 0.25, m = 135   0.080 s → 0.077 s
//	d = 4  GalaxyLike(100000, 4, 5), ε = 2, m = 21 944      2.49 s → 0.28 s
//	d = 4  HouseholdLike(120000, 4, 1), ε = 0.25, m = 206   0.100 s → 0.088 s
//	d = 4  Uniform(200000, 4, 20), ε = 1, m = 57 214        4.42 s → 0.67 s
//
// so d = 4 is in on both the many-MC and the few-MC side. (With ε-sided
// cells, 3^d and 5^d lookups, the few-MC d = 4 case lost 0.10 s → 0.55 s;
// the cell side, not the dimension, was what hurt.)
const gridMaxDim = 4

// newDirectory picks the scan-time directory from the input alone. The grid
// also needs a finite cell side.
func newDirectory(dim int, eps float64, fanout int) centerDirectory {
	if dim <= gridMaxDim && gridSide*eps <= math.MaxFloat64 {
		return newGridDirectory(dim, eps, fanout)
	}
	return treeDirectory{rtree.New(dim, fanout)}
}

// treeDirectory is the dynamic centre R-tree: every new centre is a Guttman
// insert, and the tree the scan grew, laid out flat, is the first μR-tree
// level.
type treeDirectory struct{ t *rtree.Tree }

func (d treeDirectory) nearest(p geom.Point, r float64) (int, bool) {
	id, _, ok := d.t.Nearest(p, r, true)
	return id, ok
}

func (d treeDirectory) any(p geom.Point, r float64) bool { return d.t.Any(p, r, true) }

func (d treeDirectory) insert(mcID int, center geom.Point) { d.t.Insert(mcID, center) }

func (d treeDirectory) tree() *rtree.Packed { return rtree.Freeze(d.t) }

// gridSide is the cell side in units of ε: the diameter of the wider probe
// (any centre < 2ε), so a probe box is two cells per axis and a probe is at
// most 2^d hashed lookups. Narrower cells mean more lookups per probe and
// shorter chains; the lookups are what costs (ε-sided cells took 1.5–2.5× as
// long as 4ε-sided ones on every dataset above).
const gridSide = 4

// cellLimit bounds cell coordinates so that the width of a probe box cannot
// overflow. Everything at or beyond it shares the boundary cell, which only
// lengthens that cell's chain.
const cellLimit = 1 << 61

// maxProbeSpan caps the cells a probe box may span per axis. A box spans
// two cells, a few more where |p|/ε ≥ 2^53 and neighbouring quotients are
// several cells apart. Only a coordinate whose p ± r overflows to ±Inf can
// exceed the cap; such a probe scans every centre instead of walking 2^60
// cells.
const maxProbeSpan = 16

// cellMul are the per-axis multipliers of the cell hash Σ c_a·cellMul[a]
// (mod 2^64). The hash is linear in the cell coordinates, so the hash of a
// box's next cell is one addition away from the current one's. One odd
// constant per axis: raising gridMaxDim means adding one here.
var cellMul = [gridMaxDim]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5}

// gridSlot is one occupied cell: the hash of its coordinates and the chain
// of centres in it.
type gridSlot struct {
	hash uint64
	head int32 // newest centre in the cell, −1 while the slot is free
}

// gridDirectory is a grid over the centres, hashed on the cell coordinates
// into an open-addressed table that doubles as it fills.
//
// Centres are pairwise at least ε apart, so a cell holds O(1) of them (at
// most (gridSide+1)^d), and a probe costs its box of cells whatever m is.
// Every centre strictly within r of p has its cell inside the box
// cellOf(p_i − r) … cellOf(p_i + r) on each axis: cellOf is monotone and
// p_i ∓ r rounds to nearest, so rounding can widen the box but never drop a
// cell. Whether a centre found there is a hit is the kernel's decision
// alone, which is also why a slot is identified by its 64-bit hash without
// keeping the coordinates: two cells that ever shared a hash would share a
// chain, the probe would test a few more centres, and the answer would be
// the same.
type gridDirectory struct {
	dim     int
	side    float64
	fanout  int
	kern    geom.DistSqKernel
	centers *geom.PointSet // row k is the centre of micro-cluster k
	chain   []int32        // chain[k]: the centre that was in k's cell before k, or −1
	slots   []gridSlot     // len is a power of two, at most half occupied
	shift   uint           // 64 − log2(len(slots)): a slot index is the hash's top bits
	cells   int            // occupied slots
}

func newGridDirectory(dim int, eps float64, fanout int) *gridDirectory {
	g := &gridDirectory{
		dim:     dim,
		side:    gridSide * eps,
		fanout:  fanout,
		kern:    geom.KernelFor(dim),
		centers: geom.NewPointSet(dim, 0),
	}
	g.resize(1 << 6)
	return g
}

//mulint:noalloc helper under nearest/any's gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) cellOf(v float64) int64 {
	return geom.FloorClamp(v/g.side, -cellLimit, cellLimit)
}

// slotOf returns the index of the slot holding hash h, or of the free slot
// where it would go.
//
//mulint:noalloc helper under nearest/any's gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) slotOf(h uint64) int {
	i := int(h >> g.shift)
	for g.slots[i].head >= 0 && g.slots[i].hash != h {
		i = (i + 1) & (len(g.slots) - 1)
	}
	return i
}

func (g *gridDirectory) resize(n int) {
	old := g.slots
	g.slots = make([]gridSlot, n)
	for i := range g.slots {
		g.slots[i].head = -1
	}
	g.shift = uint(64 - bits.Len(uint(n-1)))
	for _, s := range old {
		if s.head >= 0 {
			g.slots[g.slotOf(s.hash)] = s
		}
	}
}

func (g *gridDirectory) insert(mcID int, center geom.Point) {
	if mcID != g.centers.Len() {
		panic("mc: centre directory ids must arrive in order")
	}
	g.centers.Append(center)
	if 2*(g.cells+1) > len(g.slots) {
		g.resize(2 * len(g.slots))
	}
	var h uint64
	for a, v := range center {
		h += uint64(g.cellOf(v)) * cellMul[a]
	}
	s := &g.slots[g.slotOf(h)]
	if s.head < 0 {
		s.hash = h
		g.cells++
	}
	g.chain = append(g.chain, s.head)
	s.head = int32(mcID)
}

// boxWalk enumerates the cells of one probe box, odometer-wise, carrying
// the hash of the current cell.
type boxWalk struct {
	lo, hi, cur [gridMaxDim]int64
	hash        uint64
}

// start positions w on the first cell of the probe box of the ball (p, r).
// It reports false when the box is too wide to walk (see maxProbeSpan).
//
//mulint:noalloc helper under nearest/any's gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) start(w *boxWalk, p geom.Point, r float64) bool {
	w.hash = 0
	for a, v := range p {
		lo, hi := g.cellOf(v-r), g.cellOf(v+r)
		if hi-lo >= maxProbeSpan {
			return false
		}
		w.lo[a], w.hi[a], w.cur[a] = lo, hi, lo
		w.hash += uint64(lo) * cellMul[a]
	}
	return true
}

// next advances w to the next cell of its box; false once every cell has
// been visited.
//
//mulint:noalloc helper under nearest/any's gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) next(w *boxWalk) bool {
	for a := 0; a < g.dim; a++ {
		if w.cur[a] < w.hi[a] {
			w.cur[a]++
			w.hash += cellMul[a]
			return true
		}
		w.hash -= uint64(w.cur[a]-w.lo[a]) * cellMul[a]
		w.cur[a] = w.lo[a]
	}
	return false
}

//mulint:noalloc static twin of TestDirectoryProbesZeroAllocs (directory_test.go), the AllocsPerRun gate pinning 0 allocs per probe
func (g *gridDirectory) nearest(p geom.Point, r float64) (int, bool) {
	best, bestID := r*r, -1
	var w boxWalk
	if !g.start(&w, p, r) {
		for k := 0; k < g.centers.Len(); k++ {
			if d2 := g.kern(p, g.centers.Row(k)); rtree.Nearer(d2, best, k, bestID, true) {
				best, bestID = d2, k
			}
		}
		return bestID, bestID >= 0
	}
	for more := true; more; more = g.next(&w) {
		for k := g.slots[g.slotOf(w.hash)].head; k >= 0; k = g.chain[k] {
			if d2 := g.kern(p, g.centers.Row(int(k))); rtree.Nearer(d2, best, int(k), bestID, true) {
				best, bestID = d2, int(k)
			}
		}
	}
	return bestID, bestID >= 0
}

//mulint:noalloc static twin of TestDirectoryProbesZeroAllocs (directory_test.go), the AllocsPerRun gate pinning 0 allocs per probe
func (g *gridDirectory) any(p geom.Point, r float64) bool {
	var w boxWalk
	if !g.start(&w, p, r) {
		_, found := g.nearest(p, r)
		return found
	}
	r2 := r * r
	for more := true; more; more = g.next(&w) {
		for k := g.slots[g.slotOf(w.hash)].head; k >= 0; k = g.chain[k] {
			if g.kern(p, g.centers.Row(int(k))) < r2 {
				return true
			}
		}
	}
	return false
}

// tree STR-bulk-loads the first μR-tree level from the frozen centres.
func (g *gridDirectory) tree() *rtree.Packed {
	return rtree.BulkLoadSet(g.fanout, g.centers, nil)
}

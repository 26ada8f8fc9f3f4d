package mc

import (
	"math"
	"math/bits"

	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
)

// centerDirectory answers the three centre probes of Algorithm 3's scan. The
// grid is the one the scan uses; the differential tests hold it to a
// brute-force one. Both decide membership with the geom kernel and break
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

// gridAxes is the most axes the grid keys on: it hashes and walks the first
// min(d, gridAxes) coordinates of a centre and ignores the rest. A probe then
// visits at most 2^gridAxes cells whatever d and m are; the cells do not
// bound what a chain holds above gridAxes (centres ε apart in d dimensions
// can share a cell of the projection), and the bounded kernel is what keeps
// a long chain cheap there. Step 1 (Add + Finish, median build), the grown
// R-tree the grid replaced → the grid, 2 vCPUs:
//
//	d = 3   GalaxyLike(100000, 3, 5), ε = 2, m = 8 866               0.57 s → 0.10 s
//	d = 4   GalaxyLike(100000, 4, 5), ε = 2, m = 21 944              2.49 s → 0.28 s
//	d = 4   Uniform(200000, 4, 20), ε = 1, m = 57 214                4.42 s → 0.67 s
//	d = 5   HouseholdLike(120000, 5, 1), ε = 0.25, m = 293           0.091 s → 0.067 s
//	d = 6   Uniform(100000, 6, 10, 1), ε = 1.5, m = 36 080           8.4 s → 3.7 s
//	d = 8   GalaxyLike(100000, 8, 5), ε = 4, m = 31 457              12.1 s → 2.2 s
//	d = 14  BioLike(14500, 14, 1), ε = 600, m = 718                  0.060 s → 0.044 s
//	d = 16  EmbeddingClusters(60000, 16, 6, 42), ε = 0.5, m = 1 807  0.151 s → 0.101 s
//
// (The d ≤ 4 rows date from when the grid first replaced the tree there; the
// d ≥ 5 ones include the packer's switch from sorting to selecting. With
// ε-sided cells, 3^d and 5^d lookups, the few-MC d = 4 case lost 0.10 s →
// 0.55 s: the cell side, not the dimension, is what hurts.) The worst case is
// data whose first gridAxes coordinates do not vary: every centre lands in
// one cell and a probe scans them all — GalaxyLike(100000, 3, 5) behind four
// zero axes, 7.7 s → 6.6 s, a scan either way.
const gridAxes = 4

// gridSide is the cell side in units of ε: the diameter of the wider probe
// (any centre < 2ε), so a probe box is two cells per axis and a probe is at
// most 2^gridAxes hashed lookups. Narrower cells mean more lookups per probe
// and shorter chains; the lookups are what costs (ε-sided cells took 1.5–2.5×
// as long as 4ε-sided ones on every dataset above).
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
// (mod 2^64), one odd constant per keyed axis. The hash is linear in the cell
// coordinates, so the hash of a box's next cell is one addition away from
// the current one's.
var cellMul = [gridAxes]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5}

// gridSlot is one occupied cell: the hash of its coordinates and the chain
// of centres in it.
type gridSlot struct {
	hash uint64
	head int32 // newest centre in the cell, −1 while the slot is free
}

// gridDirectory is a grid over the centres, keyed on their first axes
// (gridAxes) and hashed on the cell coordinates into an open-addressed table
// that doubles as it fills.
//
// When every axis is keyed (d ≤ gridAxes), centres being pairwise at least ε
// apart puts at most (gridSide+1)^d of them in a cell, and a probe costs its
// box of cells whatever m is. Every centre strictly within r of p has its cell
// inside the box cellOf(p_a − r) … cellOf(p_a + r) on each keyed axis a: a
// keyed coordinate differs from p's by less than r, cellOf is monotone and
// p_a ∓ r rounds to nearest, so rounding can widen the box but never drop a
// cell. Whether a centre found there is a hit is the kernel's decision alone,
// which is also why a slot is identified by its 64-bit hash without keeping
// the coordinates: two cells that ever shared a hash would share a chain, the
// probe would test a few more centres, and the answer would be the same.
type gridDirectory struct {
	axes    int // keyed axes, min(d, gridAxes)
	side    float64
	fanout  int
	kern    geom.DistSqKernel
	bounded geom.BoundedKernel // the chains' kernel above gridAxes; nil at d ≤ gridAxes (kern serves)
	centers *geom.PointSet     // row k is the centre of micro-cluster k
	chain   []int32            // chain[k]: the centre that was in k's cell before k, or −1
	slots   []gridSlot         // len is a power of two, at most half occupied
	shift   uint               // 64 − log2(len(slots)): a slot index is the hash's top bits
	cells   int                // occupied slots
}

// newDirectory returns the scan-time directory: the hashed grid, at every
// dimensionality and every ε.
func newDirectory(dim int, eps float64, fanout int) *gridDirectory {
	g := &gridDirectory{
		axes:    min(dim, gridAxes),
		side:    gridSide * eps,
		fanout:  fanout,
		kern:    geom.KernelFor(dim),
		centers: geom.NewPointSet(dim, 0),
	}
	// Above gridAxes a chain is unbounded in the projection and most of it is
	// far away in the other coordinates: the bounded kernel gives up on such
	// a centre at the first block of four coordinates that puts it out of
	// reach. At d ≤ gridAxes it is a closure around the same unrolled body
	// and would only add a call.
	if dim > gridAxes {
		g.bounded = geom.BoundedKernelFor(dim)
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
	for a, v := range center[:g.axes] {
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
	lo, hi, cur [gridAxes]int64
	hash        uint64
}

// start positions w on the first cell of the probe box of the ball (p, r).
// It reports false when there is no box to walk: the box is too wide (see
// maxProbeSpan), or the cell side itself overflowed (ε > MaxFloat64/gridSide),
// where p ± r would be quotients of infinities and could drop a cell.
//
//mulint:noalloc helper under nearest/any's gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) start(w *boxWalk, p geom.Point, r float64) bool {
	if !(g.side <= math.MaxFloat64) {
		return false
	}
	w.hash = 0
	for a, v := range p[:g.axes] {
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
	for a := 0; a < g.axes; a++ {
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
			// The kernel choice is spelled out here and in any: a method
			// making it is not inlined, and that call was 7 % of a d = 3
			// build's CPU profile (GalaxyLike(100000, 3, 5), ε = 2).
			var d2 float64
			if row := g.centers.Row(int(k)); g.bounded != nil {
				d2 = g.bounded(p, row, best)
			} else {
				d2 = g.kern(p, row)
			}
			if rtree.Nearer(d2, best, int(k), bestID, true) {
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
			var d2 float64
			if row := g.centers.Row(int(k)); g.bounded != nil {
				d2 = g.bounded(p, row, r2)
			} else {
				d2 = g.kern(p, row)
			}
			if d2 < r2 {
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

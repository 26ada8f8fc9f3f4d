package mc

import (
	"math"
	"math/bits"

	"mudbscan/internal/geom"
)

// centerDirectory is the first μR-tree level: the centre probes of Algorithm
// 3's scan, then the ball queries of the reach lists and NeighborhoodInto.
// The grid is the one the Index uses; the differential tests hold it to a
// brute-force one. Both decide membership with the geom kernels' sums and
// break nearest ties with geom.Nearer, so no answer depends on which one
// served it.
type centerDirectory interface {
	// nearest returns the micro-cluster whose centre is closest to p among
	// those strictly within r, ties to the smaller id. The centres must be
	// pairwise at least r apart — every kernel sum between two of them at
	// least fl(r²) — as Algorithm 3's scan leaves them at r = ε: the grid
	// stops at a centre that separation proves nearest. nearest may update
	// the directory (the grid's hints), so it is for one goroutine at a time.
	nearest(p geom.Point, r float64) (mcID int, ok bool)
	// any reports whether some centre lies strictly within r of p.
	any(p geom.Point, r float64) bool
	// within appends every centre strictly within r of p (in the closed ball
	// if closed) to dst, once each and in no set order.
	within(p geom.Point, r float64, closed bool, dst []int) []int
	// insert records the centre of micro-cluster mcID; ids arrive in order
	// 0, 1, 2, ….
	insert(mcID int, center geom.Point)
	// centerRows is where insert copies the centres: row k is micro-cluster
	// k's centre. The Index gathers centre distances from it.
	centerRows() *geom.PointSet
}

// gridAxes is the most axes the grid keys on: it hashes and walks the first
// min(d, gridAxes) coordinates of a centre and ignores the rest. A probe then
// visits at most 2^gridAxes cells whatever d and m are; the cells do not
// bound what a chain holds above gridAxes (centres ε apart in d dimensions
// can share a cell of the projection), and the bounded sum of the linked
// kernels is what keeps a long chain cheap there. Step 1 (scan, deferred
// pass and finalize; median build), the grown R-tree the grid replaced → the
// grid, 2 vCPUs:
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
// zero axes, 7.7 s → 6.6 s, a scan either way. Step 1 before → after
// nearest's hints and accept bound (see gridDirectory; BuildSet in file
// order, medians of 16 paired runs of 6 builds, 2 vCPUs):
//
//	d = 14  BioLike(14500, 14, 1), ε = 600, m = 718   49.4 ms → 32.2 ms
//	d = 2, 3, 5: GeoTraceDrift(100000, 1), ε = 0.5, and the GalaxyLike and
//	HouseholdLike rows above                          within run-to-run spread
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
// two cells (three for a 3ε reach ball), a few more where |p|/ε ≥ 2^53 and
// neighbouring quotients are several cells apart. Only a coordinate whose
// p ± r overflows to ±Inf can exceed the cap; such a probe reads every slot
// instead of walking 2^60 cells.
const maxProbeSpan = 16

// cellMul are the per-axis multipliers of the cell hash Σ c_a·cellMul[a]
// (mod 2^32), one odd constant per keyed axis. The hash is linear in the cell
// coordinates, so a box's next cell hashes one addition away from the current
// one, and no two cells of a box share a hash (TestCellHashesDistinctWithinABox).
var cellMul = [gridAxes]uint32{0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F}

// gridSlot is one occupied cell: the hash of its coordinates and the chain
// of centres in it.
type gridSlot struct {
	hash uint32
	head int32 // newest centre in the cell, −1 while the slot is free
}

// gridDirectory is a grid over the centres, keyed on their first axes
// (gridAxes) and hashed on the cell coordinates into an open-addressed table
// that doubles as it fills.
//
// When every axis is keyed (d ≤ gridAxes), centres being pairwise at least ε
// apart puts at most (gridSide+1)^d of them in a cell, and a probe costs its
// box of cells whatever m is. A centre strictly within r of p has its cell in
// the box cellOf(p_a − r) … cellOf(p_a + r) on each keyed axis a: d² bounds
// each rounded term fl(c_a − p_a)², so |c_a − p_a| < r, and cellOf and the
// rounding of p_a ∓ r are monotone. A closed ball is the strict one at the
// next float above r if that float's square exceeds fl(r·r), as it does when
// r·r is finite and normal; within reads every slot where it does not. The
// kernel's sum alone decides a hit, which is also why a slot is identified by
// its hash, not the coordinates: two cells sharing a hash would share a
// chain, a probe would test a few more centres, and the answer would be the
// same.
//
// A probe walks its box and hands each occupied cell's chain to one geom
// linked-rows kernel (NearestLinked for nearest and any, AppendWithinLinked
// for within), which tests the whole chain in one loop over the centre rows;
// above gridAxes it gives up on a centre at the first block of four
// coordinates that puts it out of reach.
//
// nearest first tests the last two distinct centres it returned (hints)
// while the last centre it returned was one of them: where the input
// arrives with spatial locality one of them is the likely answer, and the
// smaller running best it seeds makes the chains' bounded sums exit sooner;
// where it does not (GalaxyLike, HouseholdLike), they are skipped after one
// miss instead of costing two tests on every probe. It stops — hints or
// walk — at the first winner whose sum is below acceptBound(r), fl(0.49r)².
// Algorithm 3 makes a centre
// only where no centre lies strictly within ε, so any two centres c, c' have
// a kernel sum of at least fl(ε²). Let γ, about (d+2)·2⁻⁵³, bound a sum's
// relative rounding. A probe p with sum(p, c) < fl(0.49ε)² is then less
// than 0.49ε(1 + γ) from c, and c' is at least ε(1 − γ) from c, so more
// than 0.51ε − 1.49γε from p: sum(p, c') > 0.2601ε²(1 − 7γ), which for any
// γ below 1 % exceeds 0.2401ε²(1 + γ) > sum(p, c). c is strictly the
// nearest, whatever the ids, with a margin of 0.02ε² against rounding of
// order γε². The relative bound needs fl(ε²) finite and normal (a term that
// underflows errs by at most 2⁻¹⁰⁷⁴, nothing beside a normal ε²; one that
// overflows only lies farther), so acceptBound is 0, off, everywhere else.
type gridDirectory struct {
	axes    int // keyed axes, min(d, gridAxes)
	side    float64
	centers *geom.PointSet // row k is the centre of micro-cluster k
	chain   []int32        // chain[k]: the centre that was in k's cell before k, or −1
	slots   []gridSlot     // len is a power of two, at most half occupied
	shift   uint           // 32 − log2(len(slots)): a slot index is the hash's top bits
	cells   int            // occupied slots
	hints   [2]int32       // the last two distinct centres nearest returned, newest first; −1 while unset
	local   bool           // the last centre nearest returned was a hint: try them first
}

// newDirectory returns the centre directory: the hashed grid, at every
// dimensionality and every ε.
func newDirectory(dim int, eps float64) *gridDirectory {
	g := &gridDirectory{
		axes:    min(dim, gridAxes),
		side:    gridSide * eps,
		centers: geom.NewPointSet(dim, 0),
		hints:   [2]int32{-1, -1},
	}
	g.resize(1 << 6)
	return g
}

func (g *gridDirectory) centerRows() *geom.PointSet { return g.centers }

//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) cellOf(v float64) int64 {
	return geom.FloorClamp(v/g.side, -cellLimit, cellLimit)
}

// slotOf returns the index of the slot holding hash h, or of the free slot
// where it would go.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) slotOf(h uint32) int {
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
	g.shift = uint(32 - bits.Len(uint(n-1)))
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
	var h uint32
	for a, v := range center[:g.axes] {
		h += uint32(g.cellOf(v)) * cellMul[a]
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
	hash        uint32
	all         bool // no box to walk: axis 0 runs over the slot table
}

// start positions w on the first cell of the probe box of the ball (p, r).
// There is no box to walk when it is too wide (see maxProbeSpan), or the cell
// side itself overflowed (ε > MaxFloat64/gridSide), where p ± r would be
// quotients of infinities and could drop a cell.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) start(w *boxWalk, p geom.Point, r float64) {
	w.hash, w.all = 0, !(g.side <= math.MaxFloat64)
	for a, v := range p[:g.axes] {
		lo, hi := g.cellOf(v-r), g.cellOf(v+r)
		w.lo[a], w.hi[a], w.cur[a] = lo, hi, lo
		w.hash += uint32(lo) * cellMul[a]
		w.all = w.all || hi-lo >= maxProbeSpan
	}
	if w.all {
		var whole boxWalk
		whole.all, whole.hi[0] = true, int64(len(g.slots)-1)
		*w = whole
	}
}

// slot is the slot w is on; next leaves it to the probes so that it inlines.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) slot(w *boxWalk) int {
	if w.all {
		return int(w.cur[0])
	}
	return g.slotOf(w.hash)
}

// next advances w to the next cell of its box; false once every cell has
// been visited.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) next(w *boxWalk) bool {
	for a := 0; a < g.axes; a++ {
		if w.cur[a] < w.hi[a] {
			w.cur[a]++
			w.hash += cellMul[a]
			return true
		}
		w.hash -= uint32(w.cur[a]-w.lo[a]) * cellMul[a]
		w.cur[a] = w.lo[a]
	}
	return false
}

// acceptFrac is nearest's accept radius in units of r. Below 1/2 the
// separation argument holds up to rounding (see gridDirectory); 0.49 leaves
// a margin of 0.02r² for it.
const acceptFrac = 0.49

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// acceptBound is nearest's accept bound for radius r: fl(acceptFrac·r)²
// where fl(r²) is finite and normal, otherwise 0, which accepts nothing.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func acceptBound(r float64) float64 {
	if r2 := r * r; !(r2 >= minNormal && r2 <= math.MaxFloat64) {
		return 0
	}
	a := acceptFrac * r
	return a * a
}

//mulint:noalloc static twin of TestDirectoryProbesZeroAllocs (directory_test.go), the AllocsPerRun gate pinning 0 allocs per probe
func (g *gridDirectory) nearest(p geom.Point, r float64) (int, bool) {
	rows, dim := g.centers.Data(), g.centers.Dim()
	best, bestID, accept := r*r, -1, acceptBound(r)
	for _, h := range g.hints {
		if h < 0 || !g.local {
			break
		}
		if d2 := geom.BoundedDistSq(p, rows[dim*int(h):][:dim], best); geom.Nearer(d2, best, int(h), bestID, true) {
			best, bestID = d2, int(h)
			if d2 < accept {
				return g.won(bestID)
			}
		}
	}
	var w boxWalk
	g.start(&w, p, r)
	for more := true; more; more = g.next(&w) {
		if head := g.slots[g.slot(&w)].head; head >= 0 {
			var done bool
			if best, bestID, done = geom.NearestLinked(g.chain, head, rows, dim, p, best, bestID, accept); done {
				break
			}
		}
	}
	return g.won(bestID)
}

// won is nearest's return. A centre it found becomes the newest hint, and
// whether it already was one decides whether the next probe tries them; a
// probe that found none changes neither.
//
//mulint:noalloc helper under the probes' gate (TestDirectoryProbesZeroAllocs)
func (g *gridDirectory) won(id int) (int, bool) {
	if id < 0 {
		return id, false
	}
	c := int32(id)
	g.local = c == g.hints[0] || c == g.hints[1]
	if c != g.hints[0] {
		g.hints[0], g.hints[1] = c, g.hints[0]
	}
	return id, true
}

//mulint:noalloc static twin of TestDirectoryProbesZeroAllocs (directory_test.go), the AllocsPerRun gate pinning 0 allocs per probe
func (g *gridDirectory) any(p geom.Point, r float64) bool {
	rows, dim, r2 := g.centers.Data(), g.centers.Dim(), r*r
	var w boxWalk
	g.start(&w, p, r)
	for more := true; more; more = g.next(&w) {
		if head := g.slots[g.slot(&w)].head; head >= 0 {
			// Under the strict rule a row displaces the initial best r² only
			// with a sum below r², and accept = r² ends the walk right there.
			if _, _, found := geom.NearestLinked(g.chain, head, rows, dim, p, r2, -1, r2); found {
				return true
			}
		}
	}
	return false
}

//mulint:noalloc static twin of TestDirectoryProbesZeroAllocs (directory_test.go), the AllocsPerRun gate pinning 0 allocs per warmed probe
func (g *gridDirectory) within(p geom.Point, r float64, closed bool, dst []int) []int {
	// The next float up's box holds the closed ball too, where it can (see gridDirectory).
	r2, box := r*r, math.Nextafter(r, math.Inf(1))
	if closed && !(box*box > r2) {
		box = math.Inf(1)
	}
	rows, dim := g.centers.Data(), g.centers.Dim()
	var w boxWalk
	g.start(&w, p, box)
	for more := true; more; more = g.next(&w) {
		if head := g.slots[g.slot(&w)].head; head >= 0 {
			dst = geom.AppendWithinLinked(dst, g.chain, head, rows, dim, p, r2, closed)
		}
	}
	return dst
}

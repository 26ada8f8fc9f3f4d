package mc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// buildWith builds the Index of pts through the given directory (nil: the
// one BuildSet picks).
func buildWith(pts []geom.Point, eps float64, minPts int, opts Options, dir centerDirectory) *Index {
	if dir == nil {
		return Build(pts, eps, minPts, opts)
	}
	return build(geom.PointSetFromPoints(len(pts[0]), pts), eps, minPts, opts, dir)
}

// bruteDirectory is the reference the grid is held to: every probe tests
// every centre, in id order, and elects the winner through geom.Nearer or
// appends every hit.
type bruteDirectory struct{ centers *geom.PointSet }

func bruteForce(dim int) centerDirectory {
	return &bruteDirectory{geom.NewPointSet(dim, 0)}
}

func (b *bruteDirectory) nearest(p geom.Point, r float64) (int, bool) {
	best, bestID := r*r, -1
	for k := 0; k < b.centers.Len(); k++ {
		if d2 := geom.DistSq(p, b.centers.Point(k)); geom.Nearer(d2, best, k, bestID, true) {
			best, bestID = d2, k
		}
	}
	return bestID, bestID >= 0
}

func (b *bruteDirectory) any(p geom.Point, r float64) bool {
	_, ok := b.nearest(p, r)
	return ok
}

func (b *bruteDirectory) within(p geom.Point, r float64, closed bool, dst []int) []int {
	r2 := r * r
	for k := 0; k < b.centers.Len(); k++ {
		if d2 := geom.DistSq(p, b.centers.Point(k)); d2 < r2 || closed && d2 == r2 {
			dst = append(dst, k)
		}
	}
	return dst
}

func (b *bruteDirectory) insert(_ int, center geom.Point) { b.centers.Append(center) }

func (b *bruteDirectory) centerRows() *geom.PointSet { return b.centers }

// sameIndex: identical PointMC, and per micro-cluster identical centre,
// members and reachable list.
func sameIndex(got, want *Index) error {
	if !reflect.DeepEqual(got.PointMC, want.PointMC) {
		return fmt.Errorf("PointMC differs (m=%d vs %d)", got.NumMCs(), want.NumMCs())
	}
	if got.NumMCs() != want.NumMCs() {
		return fmt.Errorf("%d MCs, want %d", got.NumMCs(), want.NumMCs())
	}
	wantViews := views(want)
	for k, m := range views(got) {
		w := wantViews[k]
		switch {
		case m.CenterID != w.CenterID:
			return fmt.Errorf("MC %d: centre %d, want %d", k, m.CenterID, w.CenterID)
		case !reflect.DeepEqual(m.Members, w.Members):
			return fmt.Errorf("MC %d: members differ", k)
		case !reflect.DeepEqual(m.Reach, w.Reach):
			return fmt.Errorf("MC %d: reachable list differs", k)
		}
	}
	return nil
}

// epsLattice draws n points whose coordinates are exact multiples of ε/2 in
// [−9ε, 9ε] (in [−ε/2, ε/2] above d = 4, where the wider lattice would leave
// every point alone): centres, members and probes sit on cell faces, at
// distance exactly ε and 2ε from one another, on both sides of the origin.
func epsLattice(rng *rand.Rand, n, d int, eps float64) []geom.Point {
	steps := 18
	if d > 4 {
		steps = 1
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(2*steps+1)-steps) * eps / 2
		}
		pts[i] = p
	}
	return pts
}

func dupHeavy(rng *rand.Rand, n, d int) []geom.Point {
	distinct := randPoints(rng, 7, d, 3)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = distinct[rng.Intn(len(distinct))]
	}
	return pts
}

// arrivalOrdered is a drifting trace: each point a small step from the last.
func arrivalOrdered(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	cur := make(geom.Point, d)
	for i := range pts {
		for j := range cur {
			cur[j] += rng.NormFloat64() * 0.3
		}
		pts[i] = cur.Clone()
	}
	return pts
}

// TestDirectoryMatchesTree: whatever the input, the index built through the
// grid directory is the index built through the brute-force one — the same
// micro-clusters from the scan probes, and the same reachable lists from the
// closed 3ε ball queries. At d = 1…4 every axis is keyed, at d = 5, 8 and 14
// only four are; with and without the 2ε deferral rule. (The name is from
// when the reference was a grown centre R-tree.)
func TestDirectoryMatchesTree(t *testing.T) {
	type input struct {
		name string
		pts  []geom.Point
		eps  float64
	}
	rng := rand.New(rand.NewSource(16))
	var inputs []input
	for _, d := range []int{1, 2, 3, 4, 5, 8, 14} {
		// Above d = 4 the points spread over more axes; ε grows with d so
		// that probes still find centres (a random point's nearest neighbour
		// is ~1.9, 3.8 and 7.3 away at d = 5, 8 and 14).
		randEps, arrivalEps := 0.7, 0.5
		if d > 4 {
			randEps, arrivalEps = 0.5*float64(d), 0.25*math.Sqrt(float64(d))
		}
		inputs = append(inputs,
			input{fmt.Sprintf("random-%dd", d), randPoints(rng, 900, d, 10), randEps},
			input{fmt.Sprintf("lattice-%dd", d), epsLattice(rng, 500, d, 0.75), 0.75},
			input{fmt.Sprintf("lattice-small-%dd", d), epsLattice(rng, 30, d, 0.75), 0.75},
			input{fmt.Sprintf("dup-heavy-%dd", d), dupHeavy(rng, 400, d), 0.5},
			input{fmt.Sprintf("dup-heavy-small-%dd", d), dupHeavy(rng, 24, d), 0.5},
			input{fmt.Sprintf("arrival-%dd", d), arrivalOrdered(rng, 800, d), arrivalEps},
		)
	}
	inputs = append(inputs,
		input{"cell-boundary-lattice-2d", data.CellBoundaryLatticeCase(), 1},
		input{"all-border-ties", data.AllBorderTieRails(8), 1.25},
		input{"geo-drift", data.GeoTraceDrift(2000, 1), 0.5},
		input{"household-5d", data.HouseholdLike(3000, 5, 1), 0.25},
		input{"bio-14d", data.BioLike(1500, 14, 1), 600},
	)
	for _, in := range inputs {
		for _, noDeferral := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noDeferral=%v", in.name, noDeferral), func(t *testing.T) {
				dim := len(in.pts[0])
				opts := Options{NoDeferral: noDeferral}
				want := buildWith(in.pts, in.eps, 4, opts, bruteForce(dim))
				if err := sameIndex(buildWith(in.pts, in.eps, 4, opts, nil), want); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzCenterDirectory: byte-derived points quantised to ε/2 steps (so ties
// at exactly ε, 2ε and 3ε, duplicates and cell-face coordinates are the
// common case) at d = 1…14, grid directory against brute force: the index
// (micro-clusters and reachable lists), and the arbitrary-point ε-query for
// a few byte-derived query points on the same lattice.
func FuzzCenterDirectory(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 2, 0, 4, 0, 1, 1, 255, 255, 8, 8, 8, 0})
	f.Add([]byte{1, 1, 0, 2, 4, 6, 8, 10, 3, 3, 250, 248})
	f.Add([]byte{3, 0, 7, 7, 7, 9, 9, 9, 7, 9, 7, 128, 0, 127})
	f.Add([]byte{4, 1, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		dim := 1 + int(b[0])%14
		opts := Options{NoDeferral: b[1]&1 == 1}
		const eps = 0.75
		var pts []geom.Point
		for body := b[2:]; len(body) >= dim && len(pts) < 400; body = body[dim:] {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = float64(int8(body[j])) * eps / 2
			}
			pts = append(pts, p)
		}
		if len(pts) == 0 {
			return
		}
		want := buildWith(pts, eps, 3, opts, bruteForce(dim))
		got := buildWith(pts, eps, 3, opts, nil)
		if err := sameIndex(got, want); err != nil {
			t.Fatal(err)
		}
		q := make(geom.Point, dim)
		for i := 0; i < 4; i++ {
			for j := range q {
				q[j] = float64(int8(b[(i*dim+j+1)%len(b)])) * eps / 2
			}
			nbhd, _ := got.NeighborhoodInto(q, nil)
			if want := bruteNbhd(pts, q, eps); !sortedEqual(nbhd, want) {
				t.Fatalf("q=%v: ε-query %v, want %v", q, nbhd, want)
			}
		}
	})
}

// TestNearestStopsOnlyAtTheProvenNearest: the grid's nearest tries its two
// hints first (while the last centre it returned was one of them) and stops
// at a winner inside the accept bound, fl(0.49ε)²; brute force tests every
// centre. A run of probes, each leaving its winner as the newest hint, must
// get brute force's answer every time, and the hints must be tried where
// they are the point of the probe:
//   - at the accept radius from a centre and one float either side;
//   - next to two centres exactly ε apart (a kernel sum of exactly fl(ε²),
//     the closest two centres the scan can make), and midway between them;
//   - where the stale hint lies within ε but another centre is nearer, so
//     the hint must neither be accepted nor win;
//   - where a hint lies exactly ε away and nothing is nearer: strictly
//     outside the ball, so there is no answer.
//
// Then probes near random centres that the scan's rule places (none within
// ε of another) at d = 1…14, so that the hints are whatever the previous
// probe left.
func TestNearestStopsOnlyAtTheProvenNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, d := range []int{1, 2, 3, 4, 5, 8, 14} {
		for _, eps := range []float64{1, 0.3, 600} {
			grid, brute := newDirectory(d, eps), bruteForce(d)
			at := func(x float64) geom.Point {
				p := make(geom.Point, d)
				p[0] = x
				return p
			}
			// Centres 0, ε and 4ε on the first axis; 0 and ε are exactly ε
			// apart in the kernel's sum.
			for k, x := range []float64{0, eps, 4 * eps} {
				grid.insert(k, at(x))
				brute.insert(k, at(x))
			}
			if got, want := geom.DistSq(at(0), at(eps)), eps*eps; got != want {
				t.Fatalf("eps=%g: centres 0 and ε sum to %v, not fl(ε²) = %v", eps, got, want)
			}
			a := acceptFrac * eps
			if got := geom.DistSq(at(a), at(0)); got != acceptBound(eps) {
				t.Fatalf("eps=%g: the probe at the accept radius sums to %v, accept is %v", eps, got, acceptBound(eps))
			}
			probes := []float64{
				a, math.Nextafter(a, 0), math.Nextafter(a, math.Inf(1)), // the accept radius from centre 0
				-a, eps - a, math.Nextafter(eps-a, 0), eps + a, // from centre 0's far side, and from ε
				0.1 * eps, 0.6 * eps, // the stale hint 0 is within ε, centre ε is nearer
				0.5 * eps, 0.9 * eps, eps, // midway between two centres ε apart (ties to 0), then next to ε
				2 * eps, // centre ε, the newest hint, lies exactly ε away: no answer
				0, -eps, // hint 0 exactly ε away: no answer
				4.4 * eps, 3.6 * eps, 1.4 * eps,
			}
			tried := map[float64]bool{0.6 * eps: true, 2 * eps: true, -eps: true}
			for _, x := range probes {
				if tried[x] && !grid.local {
					t.Fatalf("d=%d eps=%g probe %g: the hints %v are not tried", d, eps, x, grid.hints)
				}
				gotID, gotOK := grid.nearest(at(x), eps)
				if wantID, wantOK := brute.nearest(at(x), eps); gotID != wantID || gotOK != wantOK {
					t.Fatalf("d=%d eps=%g probe %g (hints %v): nearest %d/%v, brute force %d/%v",
						d, eps, x, grid.hints, gotID, gotOK, wantID, wantOK)
				}
			}

			// Centres placed by the scan's rule, probed at up to ε from a
			// random one.
			grid, brute = newDirectory(d, eps), bruteForce(d)
			var centres []geom.Point
			for tries := 0; tries < 200; tries++ {
				c := make(geom.Point, d)
				for j := range c {
					c[j] = (rng.Float64()*8 - 4) * eps
				}
				if _, ok := brute.nearest(c, eps); !ok {
					grid.insert(len(centres), c)
					brute.insert(len(centres), c)
					centres = append(centres, c)
				}
			}
			for trial := 0; trial < 400; trial++ {
				p := centres[rng.Intn(len(centres))].Clone()
				scale := rng.Float64() * eps / math.Sqrt(float64(d))
				for j := range p {
					p[j] += rng.NormFloat64() * scale
				}
				gotID, gotOK := grid.nearest(p, eps)
				if wantID, wantOK := brute.nearest(p, eps); gotID != wantID || gotOK != wantOK {
					t.Fatalf("d=%d eps=%g trial %d: nearest %d/%v, brute force %d/%v", d, eps, trial, gotID, gotOK, wantID, wantOK)
				}
			}
		}
	}
}

// TestDirectoryOutOfRangeCoordinates: coordinates the cell arithmetic cannot
// resolve — a dataset translated by 2^54·ε, where neighbouring floats are
// whole cells apart, and rows holding NaN or ±Inf, on a keyed axis or (at
// d = 6) past them — build the index brute force builds: such a row matches
// nothing and seeds its own micro-cluster.
func TestDirectoryOutOfRangeCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const eps = 0.5
	for _, d := range []int{1, 2, 3, 6} {
		base := epsLattice(rng, 300, d, eps)
		shifted := make([]geom.Point, len(base))
		for i, p := range base {
			q := p.Clone()
			for j := range q {
				q[j] += math.Ldexp(eps, 54)
			}
			shifted[i] = q
		}
		odd := append([]geom.Point(nil), base...)
		for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
			q := base[k].Clone()
			q[(k+d-1)%d] = v
			odd[40*k+7] = q
			odd = append(odd, q) // and once more: not even its own duplicate may match a NaN row
		}
		for name, pts := range map[string][]geom.Point{"translated": shifted, "non-finite": odd} {
			want := buildWith(pts, eps, 4, Options{}, bruteForce(d))
			if err := sameIndex(buildWith(pts, eps, 4, Options{}, nil), want); err != nil {
				t.Fatalf("d=%d %s: %v", d, name, err)
			}
		}
	}
}

// TestDirectoryHugeEps: where p ± r overflows, the probe box is not walked
// (it would span 2^60 cells); where the cell side itself overflows (ε =
// MaxFloat64, +Inf), there is no box at all. Either way the probe scans the
// centres, and the index is the one brute force builds. nearest's accept
// bound is off wherever fl(ε²) overflows or is not normal, and the index is
// still brute force's: at ε = 2^600 (ε² overflows) the hint, centre (0, 0),
// which the two points before the probe (0.7, 0.7)·10^154 joined, is within
// ε of it, and a second centre that the sum of two finite squares put out
// of its reach is nearer; at subnormal and underflowing ε², on a lattice of
// ε/2 steps.
func TestDirectoryHugeEps(t *testing.T) {
	pts := []geom.Point{{math.MaxFloat64, 0}, {0, 0}, {-math.MaxFloat64, 1}, {math.Ldexp(1, 969), 2}, {math.MaxFloat64, 3}, {1, 1}}
	for _, eps := range []float64{math.Ldexp(1, 970), math.MaxFloat64, math.Inf(1)} {
		want := buildWith(pts, eps, 2, Options{}, bruteForce(2))
		if err := sameIndex(buildWith(pts, eps, 2, Options{}, nil), want); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
	}
	rng := rand.New(rand.NewSource(1022))
	for _, c := range []struct {
		pts []geom.Point
		eps float64
	}{
		{[]geom.Point{{0, 0}, {1.2e154, 1.2e154}, {1, 0}, {2, 0}, {0.7e154, 0.7e154}}, math.Ldexp(1, 600)},
		{epsLattice(rng, 300, 2, math.Ldexp(1, -520)), math.Ldexp(1, -520)},   // ε² = 2^-1040, subnormal
		{epsLattice(rng, 300, 3, math.Ldexp(1, -1060)), math.Ldexp(1, -1060)}, // ε subnormal, ε² underflows to 0
	} {
		if acceptBound(c.eps) != 0 {
			t.Fatalf("eps=%g: accept bound %v, want 0 (off)", c.eps, acceptBound(c.eps))
		}
		dim := len(c.pts[0])
		want := buildWith(c.pts, c.eps, 2, Options{}, bruteForce(dim))
		if err := sameIndex(buildWith(c.pts, c.eps, 2, Options{}, nil), want); err != nil {
			t.Fatalf("eps=%g: %v", c.eps, err)
		}
	}
	if acceptBound(math.Ldexp(1, -511)) == 0 || acceptBound(math.Ldexp(1, 511)) == 0 {
		t.Fatal("accept bound off where ε² is finite and normal")
	}
}

// TestDirectoryDimensionThreshold: there is no threshold any more. Every d
// takes the grid, keyed on its first min(d, gridAxes) axes, and with a
// finite cell side every probe walks a box; only an overflowing side reads
// every slot.
func TestDirectoryDimensionThreshold(t *testing.T) {
	for d := 1; d <= 16; d++ {
		for _, eps := range []float64{1, math.Ldexp(1, 970), math.MaxFloat64} {
			g, ok := Build([]geom.Point{make(geom.Point, d)}, eps, 3, Options{}).dir.(*gridDirectory)
			if !ok {
				t.Fatalf("d=%d eps=%g: not the grid directory", d, eps)
			}
			if g.axes != min(d, gridAxes) {
				t.Fatalf("d=%d: %d keyed axes", d, g.axes)
			}
			var w boxWalk
			if g.start(&w, make(geom.Point, d), eps); w.all != (gridSide*eps > math.MaxFloat64) {
				t.Fatalf("d=%d eps=%g: box walked = %v", d, eps, !w.all)
			}
		}
	}
}

// TestDirectoryProbesZeroAllocs: the three probes walk their box on the
// stack, handing each cell's chain to geom's linked kernels (unrolled at
// d ≤ 4, summed bounded above), and within appends into a warmed buffer. insert may allocate, but only to
// grow the table and the chains.
func TestDirectoryProbesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 4, 5, 8, 14} {
		const eps = 0.6
		pts := randPoints(rng, 4000, d, 12)
		dir := Build(pts, eps, 4, Options{SkipReachable: true}).dir
		var hits, found, balls int
		buf := make([]int, 0, 4096)
		allocs := testing.AllocsPerRun(20, func() {
			for _, p := range pts[:200] {
				if _, ok := dir.nearest(p, eps); ok {
					hits++
				}
				if dir.any(p, 2*eps) {
					found++
				}
				buf = dir.within(p, 3*eps, true, buf[:0])
				balls += len(buf)
				buf = dir.within(p, 2*eps, false, buf[:0])
			}
		})
		if allocs != 0 {
			t.Fatalf("d=%d: %.1f allocs per 200 nearest+any+within probes, want 0", d, allocs)
		}
		if hits == 0 || found == 0 || balls == 0 {
			t.Fatalf("d=%d: probes found nothing (hits=%d found=%d balls=%d)", d, hits, found, balls)
		}
	}
}

// TestCellHashesDistinctWithinABox: no two cells of one probe box share a
// hash, at any keyed-axis count, so a walk reads each slot at most once and
// within reports no centre twice. The hash is linear, so this is the claim
// that no nonzero offset Δ with |Δ_a| < maxProbeSpan hashes to 0 mod 2^32.
func TestCellHashesDistinctWithinABox(t *testing.T) {
	const span = maxProbeSpan - 1
	for axes := 1; axes <= gridAxes; axes++ {
		var delta [gridAxes]int64
		for a := range delta[:axes] {
			delta[a] = -span
		}
		for {
			var h uint32
			zero := true
			for a, v := range delta[:axes] {
				h += uint32(v) * cellMul[a]
				zero = zero && v == 0
			}
			if h == 0 && !zero {
				t.Fatalf("axes=%d: offset %v hashes to 0", axes, delta[:axes])
			}
			a := 0
			for ; a < axes && delta[a] == span; a++ {
				delta[a] = -span
			}
			if a == axes {
				break
			}
			delta[a]++
		}
	}
}

// TestIndexHoldsOneCentreStructure: the grid the scan probed is the Index's
// one centre structure once built, and it holds the m centres.
func TestIndexHoldsOneCentreStructure(t *testing.T) {
	ix := Build([]geom.Point{{0, 0}, {5, 5}, {0.5, 0}}, 1, 3, Options{})
	g, ok := ix.dir.(*gridDirectory)
	if !ok {
		t.Fatalf("the Index holds %T, not the grid", ix.dir)
	}
	if g.centers.Len() != ix.NumMCs() || ix.NumMCs() != 2 {
		t.Fatalf("the grid holds %d centres for m=%d, want 2", g.centers.Len(), ix.NumMCs())
	}
}

// countingDirectory is the grid with a tally of the centres its probes test:
// for nearest, its hints where it tries them and then the chains of its box
// up to the winner it accepts; for any, the chains up to the first hit; for
// within, every centre on the chains of its box.
type countingDirectory struct {
	*gridDirectory
	probes, tested int
}

// walk offers the centres on the chains of the box of (p, r) to test, in the
// grid's order, until test returns true.
func (c *countingDirectory) walk(p geom.Point, r float64, test func(k int) bool) {
	c.probes++
	var w boxWalk
	c.start(&w, p, r)
	for more := true; more; more = c.next(&w) {
		for k := c.slots[c.slot(&w)].head; k >= 0; k = c.chain[k] {
			c.tested++
			if test(int(k)) {
				return
			}
		}
	}
}

func (c *countingDirectory) nearest(p geom.Point, r float64) (int, bool) {
	best, bestID, accept := r*r, -1, acceptBound(r)
	test := func(k int) bool {
		d2 := geom.DistSq(p, c.centers.Point(k))
		if !geom.Nearer(d2, best, k, bestID, true) {
			return false
		}
		best, bestID = d2, k
		return d2 < accept
	}
	accepted := false
	for _, h := range c.hints {
		if h < 0 || !c.local || accepted {
			break
		}
		c.tested++
		accepted = test(int(h))
	}
	if accepted {
		c.probes++
	} else {
		c.walk(p, r, test)
	}
	if id, _ := c.gridDirectory.nearest(p, r); id != bestID {
		panic(fmt.Sprintf("the tally elected centre %d, the grid %d", bestID, id))
	}
	return bestID, bestID >= 0
}

func (c *countingDirectory) any(p geom.Point, r float64) bool {
	c.walk(p, r, func(k int) bool { return geom.DistSq(p, c.centers.Point(k)) < r*r })
	return c.gridDirectory.any(p, r)
}

func (c *countingDirectory) within(p geom.Point, r float64, closed bool, dst []int) []int {
	c.walk(p, math.Nextafter(r, math.Inf(1)), func(int) bool { return false })
	return c.gridDirectory.within(p, r, closed, dst)
}

// perProbe returns the centres tested per probe since the last call.
func (c *countingDirectory) perProbe() float64 {
	v := float64(c.tested) / float64(max(c.probes, 1))
	c.probes, c.tested = 0, 0
	return v
}

// BenchmarkCentreDirectory times the two phases of the build that probe the
// centre grid — the Build (Algorithm 3's scan, the deferred pass and the
// finalize work, SkipReachable) and the reachable lists (ComputeReachable) —
// on a low-d and a high-d workload, and reports the centres each phase's
// probes test, counted on an untimed build (a nearest probe's hints count
// whether or not its walk tests them again). BuildSet reorders the block, so
// each build puts it back, untimed, for the next.
func BenchmarkCentreDirectory(b *testing.B) {
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}{
		{"galaxy3d", data.GalaxyLike(100000, 3, 5), 2, 5},
		{"bio14d", data.BioLike(14500, 14, 1), 600, 5},
	} {
		set := geom.PointSetFromPoints(len(c.pts[0]), c.pts)
		opts := Options{SkipReachable: true}
		counter := &countingDirectory{gridDirectory: newDirectory(set.Dim(), c.eps)}
		ix := build(set, c.eps, c.minPts, opts, counter)
		perProbe := map[string]float64{"Build": counter.perProbe()}
		ix.ComputeReachable()
		perProbe["ComputeReachable"] = counter.perProbe()
		ix.Restore()

		b.Run(c.name+"/Build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := BuildSet(set, c.eps, c.minPts, opts)
				b.StopTimer() // every build scans the points in their given order
				ix.Restore()
				b.StartTimer()
			}
			b.ReportMetric(perProbe["Build"], "centres/probe")
		})
		b.Run(c.name+"/ComputeReachable", func(b *testing.B) {
			ix := BuildSet(set, c.eps, c.minPts, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.ComputeReachable()
			}
			b.ReportMetric(perProbe["ComputeReachable"], "centres/probe")
		})
	}
}

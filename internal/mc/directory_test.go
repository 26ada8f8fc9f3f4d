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
// centres, and the index is the one brute force builds.
func TestDirectoryHugeEps(t *testing.T) {
	pts := []geom.Point{{math.MaxFloat64, 0}, {0, 0}, {-math.MaxFloat64, 1}, {math.Ldexp(1, 969), 2}, {math.MaxFloat64, 3}, {1, 1}}
	for _, eps := range []float64{math.Ldexp(1, 970), math.MaxFloat64, math.Inf(1)} {
		want := buildWith(pts, eps, 2, Options{}, bruteForce(2))
		if err := sameIndex(buildWith(pts, eps, 2, Options{}, nil), want); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
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
// every centre on the chains of a probe's box, up to the first hit for any.
type countingDirectory struct {
	*gridDirectory
	probes, tested int
}

func (c *countingDirectory) count(p geom.Point, r float64, stopAtHit bool) {
	c.probes++
	var w boxWalk
	c.start(&w, p, r)
	for more := true; more; more = c.next(&w) {
		for k := c.slots[c.slot(&w)].head; k >= 0; k = c.chain[k] {
			c.tested++
			if stopAtHit && geom.DistSq(p, c.centers.Point(int(k))) < r*r {
				return
			}
		}
	}
}

func (c *countingDirectory) nearest(p geom.Point, r float64) (int, bool) {
	c.count(p, r, false)
	return c.gridDirectory.nearest(p, r)
}

func (c *countingDirectory) any(p geom.Point, r float64) bool {
	c.count(p, r, true)
	return c.gridDirectory.any(p, r)
}

func (c *countingDirectory) within(p geom.Point, r float64, closed bool, dst []int) []int {
	c.count(p, math.Nextafter(r, math.Inf(1)), false)
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
// probes test, counted on an untimed build.
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

		b.Run(c.name+"/Build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildSet(set, c.eps, c.minPts, opts)
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

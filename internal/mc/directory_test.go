package mc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
)

// buildWith feeds pts through a Builder over the given directory (nil: the
// one NewBuilder picks), cutting the Add batches at cuts.
func buildWith(pts []geom.Point, eps float64, minPts int, opts Options, dir centerDirectory, cuts ...int) *Index {
	dim := len(pts[0])
	var b *Builder
	if dir == nil {
		b = NewBuilder(dim, eps, minPts, opts)
	} else {
		b = newBuilder(dim, eps, minPts, opts, dir)
	}
	from := 0
	for _, c := range cuts {
		b.Add(pts[from:c])
		from = c
	}
	b.Add(pts[from:])
	return b.Finish()
}

func forcedTree(dim int) centerDirectory {
	return treeDirectory{rtree.New(dim, rtree.DefaultMaxEntries)}
}

func sortedReach(r []int32) []int32 {
	s := append([]int32(nil), r...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

// sameIndex: identical PointMC, and per micro-cluster identical centre,
// members, inner circle and kind; reachable lists equal as sets (their order
// is the centre tree's, and the two directories hand over different trees).
func sameIndex(got, want *Index) error {
	if !reflect.DeepEqual(got.PointMC, want.PointMC) {
		return fmt.Errorf("PointMC differs (m=%d vs %d)", got.NumMCs(), want.NumMCs())
	}
	if got.NumMCs() != want.NumMCs() {
		return fmt.Errorf("%d MCs, want %d", got.NumMCs(), want.NumMCs())
	}
	for k, m := range views(got) {
		w := views(want)[k]
		switch {
		case m.CenterID != w.CenterID:
			return fmt.Errorf("MC %d: centre %d, want %d", k, m.CenterID, w.CenterID)
		case m.Kind != w.Kind:
			return fmt.Errorf("MC %d: kind %v, want %v", k, m.Kind, w.Kind)
		case !reflect.DeepEqual(m.Members, w.Members):
			return fmt.Errorf("MC %d: members differ", k)
		case !reflect.DeepEqual(m.InnerIDs, w.InnerIDs):
			return fmt.Errorf("MC %d: inner circle differs", k)
		case !reflect.DeepEqual(sortedReach(m.Reach), sortedReach(w.Reach)):
			return fmt.Errorf("MC %d: reachable set differs", k)
		}
	}
	return nil
}

// epsLattice draws n points whose coordinates are exact multiples of ε/2 in
// [−9ε, 9ε]: centres, members and probes sit on cell faces, at distance
// exactly ε and 2ε from one another, on both sides of the origin.
func epsLattice(rng *rand.Rand, n, d int, eps float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(37)-18) * eps / 2
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
// grid directory is the index built through the dynamic centre tree — at
// every dimensionality the grid serves, with and without the 2ε deferral
// rule, and under every 2- and 3-way split of the Add batches.
func TestDirectoryMatchesTree(t *testing.T) {
	type input struct {
		name string
		pts  []geom.Point
		eps  float64
	}
	rng := rand.New(rand.NewSource(16))
	var inputs []input
	for d := 1; d <= gridMaxDim; d++ {
		inputs = append(inputs,
			input{fmt.Sprintf("random-%dd", d), randPoints(rng, 900, d, 10), 0.7},
			input{fmt.Sprintf("lattice-%dd", d), epsLattice(rng, 500, d, 0.75), 0.75},
			input{fmt.Sprintf("lattice-small-%dd", d), epsLattice(rng, 30, d, 0.75), 0.75},
			input{fmt.Sprintf("dup-heavy-%dd", d), dupHeavy(rng, 400, d), 0.5},
			input{fmt.Sprintf("dup-heavy-small-%dd", d), dupHeavy(rng, 24, d), 0.5},
			input{fmt.Sprintf("arrival-%dd", d), arrivalOrdered(rng, 800, d), 0.5},
		)
	}
	inputs = append(inputs,
		input{"cell-boundary-lattice-2d", data.CellBoundaryLatticeCase(), 1},
		input{"all-border-ties", data.AllBorderTieRails(8), 1.25},
		input{"geo-drift", data.GeoTraceDrift(2000, 1), 0.5},
	)
	for _, in := range inputs {
		for _, noDeferral := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noDeferral=%v", in.name, noDeferral), func(t *testing.T) {
				dim := len(in.pts[0])
				opts := Options{NoDeferral: noDeferral}
				if _, ok := NewBuilder(dim, in.eps, 4, opts).dir.(*gridDirectory); !ok {
					t.Fatalf("d=%d does not take the grid directory", dim)
				}
				want := buildWith(in.pts, in.eps, 4, opts, forcedTree(dim))
				if err := sameIndex(buildWith(in.pts, in.eps, 4, opts, nil), want); err != nil {
					t.Fatal(err)
				}
				n := len(in.pts)
				var splits [][]int
				if n <= 30 {
					for a := 0; a <= n; a++ {
						splits = append(splits, []int{a})
						for b := a; b <= n; b++ {
							splits = append(splits, []int{a, b})
						}
					}
				} else {
					for k := 0; k < 6; k++ {
						a := rng.Intn(n + 1)
						splits = append(splits, []int{a}, []int{a, a + rng.Intn(n+1-a)})
					}
				}
				for _, cuts := range splits {
					if err := sameIndex(buildWith(in.pts, in.eps, 4, opts, nil, cuts...), want); err != nil {
						t.Fatalf("split %v: %v", cuts, err)
					}
				}
			})
		}
	}
}

// FuzzCenterDirectory: byte-derived points quantised to ε/2 steps (so ties
// at exactly ε and 2ε, duplicates and cell-face coordinates are the common
// case), grid directory against forced tree directory.
func FuzzCenterDirectory(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 2, 0, 4, 0, 1, 1, 255, 255, 8, 8, 8, 0})
	f.Add([]byte{1, 1, 0, 2, 4, 6, 8, 10, 3, 3, 250, 248})
	f.Add([]byte{3, 0, 7, 7, 7, 9, 9, 9, 7, 9, 7, 128, 0, 127})
	f.Add([]byte{4, 1, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		dim := 1 + int(b[0])%gridMaxDim
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
		want := buildWith(pts, eps, 3, opts, forcedTree(dim))
		if err := sameIndex(buildWith(pts, eps, 3, opts, nil, len(pts)/2), want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDirectoryOutOfRangeCoordinates: coordinates the cell arithmetic cannot
// resolve — a dataset translated by 2^54·ε, where neighbouring floats are
// whole cells apart, and rows holding NaN or ±Inf — build the same index
// through both directories: such a row matches nothing and seeds its own
// micro-cluster, as under the tree.
func TestDirectoryOutOfRangeCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const eps = 0.5
	for d := 1; d <= 3; d++ {
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
			q[k%d] = v
			odd[40*k+7] = q
			odd = append(odd, q) // and once more: not even its own duplicate may match a NaN row
		}
		for name, pts := range map[string][]geom.Point{"translated": shifted, "non-finite": odd} {
			want := buildWith(pts, eps, 4, Options{}, forcedTree(d))
			if err := sameIndex(buildWith(pts, eps, 4, Options{}, nil, len(pts)/3), want); err != nil {
				t.Fatalf("d=%d %s: %v", d, name, err)
			}
		}
	}
}

// TestDirectoryHugeEps: where p ± r overflows, the probe box is not walked
// (it would span 2^60 cells); the probe scans the centres and the answer is
// still the tree's. Where the cell side itself overflows, the tree serves.
func TestDirectoryHugeEps(t *testing.T) {
	eps := math.Ldexp(1, 970)
	pts := []geom.Point{{math.MaxFloat64, 0}, {0, 0}, {-math.MaxFloat64, 1}, {math.Ldexp(1, 969), 2}, {math.MaxFloat64, 3}}
	if _, ok := NewBuilder(2, eps, 2, Options{}).dir.(*gridDirectory); !ok {
		t.Fatal("finite cell side must take the grid directory")
	}
	want := buildWith(pts, eps, 2, Options{}, forcedTree(2))
	if err := sameIndex(buildWith(pts, eps, 2, Options{}, nil), want); err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{math.MaxFloat64, math.Inf(1)} {
		if _, ok := NewBuilder(2, e, 2, Options{}).dir.(treeDirectory); !ok {
			t.Fatalf("eps=%g: an overflowing cell side must take the tree directory", e)
		}
	}
}

// TestDirectoryDimensionThreshold pins the choice to dim alone.
func TestDirectoryDimensionThreshold(t *testing.T) {
	for d := 1; d <= gridMaxDim+2; d++ {
		_, grid := NewBuilder(d, 1, 3, Options{}).dir.(*gridDirectory)
		if grid != (d <= gridMaxDim) {
			t.Fatalf("d=%d: grid=%v", d, grid)
		}
	}
}

// TestDirectoryProbesZeroAllocs: the two scan probes walk their box on the
// stack. insert may allocate, but only to grow the table and the chains.
func TestDirectoryProbesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 1; d <= gridMaxDim; d++ {
		const eps = 0.6
		pts := randPoints(rng, 4000, d, 12)
		b := NewBuilder(d, eps, 4, Options{})
		b.Add(pts)
		var dir centerDirectory = b.dir
		var hits, found int
		allocs := testing.AllocsPerRun(20, func() {
			for _, p := range pts[:200] {
				if _, ok := dir.nearest(p, eps); ok {
					hits++
				}
				if dir.any(p, 2*eps) {
					found++
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("d=%d: %.1f allocs per 200 nearest+any probes, want 0", d, allocs)
		}
		if hits == 0 || found == 0 {
			t.Fatalf("d=%d: probes found nothing (hits=%d found=%d)", d, hits, found)
		}
	}
}

// TestFinishDropsDirectory: a cached Index must not keep the scan-time grid
// alive through its Builder.
func TestFinishDropsDirectory(t *testing.T) {
	b := NewBuilder(2, 1, 3, Options{})
	b.Add([]geom.Point{{0, 0}, {5, 5}})
	ix := b.Finish()
	if b.dir != nil {
		t.Fatal("Finish kept the directory")
	}
	if ix.centers.Len() != ix.NumMCs() {
		t.Fatalf("centre tree holds %d of %d centres", ix.centers.Len(), ix.NumMCs())
	}
}

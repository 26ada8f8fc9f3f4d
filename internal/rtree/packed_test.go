package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mudbscan/internal/geom"
)

// latticePoints draws n points from a coarse integer lattice: many equal
// coordinates, so every STR sort is full of ties and so are the distances.
func latticePoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(7))
		}
		pts[i] = p
	}
	return pts
}

// sameWalk holds a packed tree to a pointer one: the same ids in the same
// order with the same squared distances after the same number of distance
// computations, for strict and closed balls around a set of centres. The
// whole-node walk is held to it too: the same ids in the same order, with
// its distances and its wholesale rows adding up to the reference's count.
// It returns the rows emitted wholesale over all the queries.
func sameWalk(f *Packed, root int32, ref *Tree, centres []geom.Point, radii []float64) (emitted int, err error) {
	for _, c := range centres {
		for _, r := range radii {
			for _, strict := range []bool{true, false} {
				var gotD, wantD []float64
				got, gotCalcs := f.SphereDistIntoAt(root, c, r, strict, nil, &gotD)
				want, wantCalcs := refSphereDistInto(ref, c, r, strict, nil, &wantD)
				if !equalInts(got, want) || !equalFloats(gotD, wantD) || gotCalcs != wantCalcs {
					return 0, fmt.Errorf("centre %v r=%g strict=%v: packed %v %v (%d calcs), reference %v %v (%d calcs)",
						c, r, strict, got, gotD, gotCalcs, want, wantD, wantCalcs)
				}
				whole, calcs, rows := f.SphereIDsIntoAt(root, c, r, strict, []int{-1})
				if whole[0] != -1 || !equalInts(whole[1:], want) || calcs+rows != wantCalcs {
					return 0, fmt.Errorf("centre %v r=%g strict=%v: whole-node walk %v (%d calcs + %d emitted), reference %v (%d calcs)",
						c, r, strict, whole[1:], calcs, rows, want, wantCalcs)
				}
				emitted += rows
			}
		}
	}
	return emitted, nil
}

// TestPackedMatchesReference: packing changes where a tree's bytes live and
// nothing a query can observe. The packed STR tree against the pointer STR
// loader it replaced, which sorts every slab in full where the packer only
// selects, and Freeze against the grown tree it copies, on random and on
// tie-heavy sets — ties included, since both follow one total order; the
// node count is the one NodeCount predicts. Its whole-node arm (sameWalk)
// holds the id-only walk mc queries with to the same reference, and must
// have emitted rows wholesale at every d.
func TestPackedMatchesReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 14} {
		emitted := 0
		for _, n := range []int{1, 5, 16, 17, 40, 300, 5000} {
			for _, kind := range []string{"random", "lattice"} {
				rng := rand.New(rand.NewSource(int64(1000*d + n)))
				pts := randPoints(rng, n, d)
				radii := []float64{0, 3, 25, 60 * math.Sqrt(float64(d)), math.Inf(1)}
				if kind == "lattice" {
					pts = latticePoints(rng, n, d)
					// Step 1 is ε/2 for r = 2: box corners at exactly r,
					// one ulp inside and one ulp outside it are common.
					radii = []float64{0, 1, 2, math.Nextafter(2, 3), math.Nextafter(2, 1), math.Sqrt(float64(d)), math.Inf(1)}
				}
				centres := append(randPoints(rng, 3, d), pts[0], pts[n/2], pts[n-1])
				for _, fan := range []int{4, 16} {
					name := fmt.Sprintf("d=%d n=%d %s fan-out %d", d, n, kind, fan)
					ref := refBulkLoad(d, fan, pts, nil)
					packed := BulkLoad(d, fan, pts, nil)
					rows, err := sameWalk(packed, 0, ref, centres, radii)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					emitted += rows
					if want := countNodes(ref.root); len(packed.nodes) != want || NodeCount(n, fan) != want {
						t.Fatalf("%s: %d nodes packed, %d predicted, reference has %d", name, len(packed.nodes), NodeCount(n, fan), want)
					}
					if nodes, rows := invariantCheck(t, packed, 0); nodes != len(packed.nodes) || rows != n {
						t.Fatalf("%s: walk reached %d of %d nodes, %d of %d rows", name, nodes, len(packed.nodes), rows, n)
					}

					grown := New(d, fan)
					for i, p := range pts {
						grown.Insert(i, p)
					}
					frozen := Freeze(grown)
					if _, err := sameWalk(frozen, 0, grown, centres, radii); err != nil {
						t.Fatalf("%s, Freeze: %v", name, err)
					}
					if nodes, rows := invariantCheck(t, frozen, 0); nodes != countNodes(grown.root) || rows != n {
						t.Fatalf("%s, Freeze: walk reached %d nodes of %d, %d of %d rows", name, nodes, countNodes(grown.root), rows, n)
					}
				}
			}
		}
		if emitted == 0 {
			t.Fatalf("d=%d: the whole-node walk never emitted a node", d)
		}
	}
}

// TestForestTreesAreIndependent: trees packed side by side into one forest,
// over scattered rows of one set laid out group by group and in any order,
// answer like trees bulk-loaded on their own, and fill the arenas exactly.
func TestForestTreesAreIndependent(t *testing.T) {
	const d, fan = 3, 6
	rng := rand.New(rand.NewSource(5))
	pts := latticePoints(rng, 900, d)
	set := geom.PointSetFromPoints(d, pts)
	perm := rng.Perm(len(pts))
	var groups [][]int32
	for _, size := range []int{1, 1, 6, 7, 1, 200, 36, 37, 1, 610} {
		g := make([]int32, size)
		for i := range g {
			g[i] = int32(perm[0])
			perm = perm[1:]
		}
		groups = append(groups, g)
	}
	roots, rowAt := make([]int32, len(groups)+1), make([]int32, len(groups)+1)
	for k, g := range groups {
		roots[k+1] = roots[k] + int32(NodeCount(len(g), fan))
		rowAt[k+1] = rowAt[k] + int32(len(g))
	}
	block, blockIDs := make([]float64, 0, len(set.Data())), make([]int, 0, len(pts))
	for _, g := range groups {
		for _, id := range g {
			block, blockIDs = append(block, set.Row(int(id))...), append(blockIDs, int(id))
		}
	}
	f := NewForest(d, fan, int(roots[len(groups)]), block, blockIDs)
	p := f.Packer()
	for _, k := range rng.Perm(len(groups)) {
		p.Pack(roots[k], rowAt[k], len(groups[k]))
	}
	nodes, rows := 0, 0
	for k, g := range groups {
		sub := make([]geom.Point, len(g))
		ids := make([]int, len(g))
		for i, id := range g {
			sub[i], ids[i] = pts[id], int(id)
		}
		ref := refBulkLoad(d, fan, sub, ids)
		if _, err := sameWalk(f, roots[k], ref, pts[:5], []float64{0, 1, 2.5, 40, math.Inf(1)}); err != nil {
			t.Fatalf("tree %d (%d rows): %v", k, len(g), err)
		}
		kn, kr := invariantCheck(t, f, roots[k])
		if kn != NodeCount(len(g), fan) || kr != len(g) {
			t.Fatalf("tree %d: %d nodes and %d rows, want %d and %d", k, kn, kr, NodeCount(len(g), fan), len(g))
		}
		nodes, rows = nodes+kn, rows+kr
		if want := geom.MBRFromPoints(sub); f.OverlapsRegion(roots[k], geom.Point{-1, -1, -1}, 0.5) ||
			!f.OverlapsRegion(roots[k], want.Min, 0) || !f.OverlapsRegion(roots[k], want.Max, 0) {
			t.Fatalf("tree %d: OverlapsRegion disagrees with the rows' bounding box %v", k, want)
		}
	}
	if nodes != len(f.nodes) || rows != f.Len() {
		t.Fatalf("trees cover %d of %d nodes, %d of %d rows", nodes, len(f.nodes), rows, f.Len())
	}
}

// FuzzPackedSphere: byte-derived quantised points (ties everywhere) at
// fan-out 4…16 — the packed tree, plain and whole-node, against brute force
// for the hit set, and against the fully sorting reference loader for order,
// distances and distance count. The lattice step is 1, so r = 2 is ε at ε/2
// steps, and its two neighbouring floats put a box corner at exactly 2 one
// ulp inside and one ulp outside the ball; the seeds after the first four
// are such boxes (see wholeNodeSeeds).
func FuzzPackedSphere(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{1, 12, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{14, 3, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 254, 253, 252, 251, 250})
	f.Add([]byte{3, 7})
	for _, seed := range wholeNodeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		d := 1 + int(in[0])%14
		fan := 4 + int(in[1])%13
		in = in[2:]
		n := len(in) / d
		if n == 0 {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = make(geom.Point, d)
			for j := range pts[i] {
				pts[i][j] = float64(in[i*d+j] % 8)
			}
		}
		packed := BulkLoad(d, fan, pts, nil)
		ref := refBulkLoad(d, fan, pts, nil)
		radii := []float64{0, 1, 2, math.Nextafter(2, 3), math.Nextafter(2, 1), math.Sqrt(float64(d)), 3.5}
		centres := []geom.Point{pts[0], pts[n-1], pts[n/2]}
		if _, err := sameWalk(packed, 0, ref, centres, radii); err != nil {
			t.Fatal(err)
		}
		for _, c := range centres {
			for _, r := range radii {
				for _, strict := range []bool{true, false} {
					want := bruteSphere(pts, c, r, strict)
					got, _ := packed.SphereInto(c, r, strict, nil)
					sort.Ints(got)
					if !equalInts(got, want) {
						t.Fatalf("d=%d fan-out %d centre %v r=%g strict=%v: got %v, brute force %v", d, fan, c, r, strict, got, want)
					}
					got, _, _ = packed.SphereIDsIntoAt(0, c, r, strict, nil)
					sort.Ints(got)
					if !equalInts(got, want) {
						t.Fatalf("d=%d fan-out %d centre %v r=%g strict=%v: whole-node walk %v, brute force %v", d, fan, c, r, strict, got, want)
					}
				}
			}
		}
	})
}

// wholeNodeSeeds are FuzzPackedSphere inputs on the ε/2 lattice (ε = 2)
// whose first point, a query centre, has a tree node with its farthest corner
// at exactly 2: at d = 1 a one-leaf line 0…2 and a fourteen-point one whose
// root and two leaves span 0…2 or 1…2; at d = 2 a one-leaf segment
// (0, 0)…(2, 0); and a 30-point d = 2 set, fan-out 4, whose root reaches
// past 2 while an inner node and a leaf below it have their corner at
// exactly 2 from (0, 0).
var wholeNodeSeeds = [][]byte{
	{0, 0, 0, 1, 2, 0},
	{0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2, 0, 1, 2},
	{1, 0, 0, 0, 1, 0, 2, 0, 1, 0},
	{1, 0, 0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 2, 7, 1, 0, 1, 2, 6, 1, 0, 2, 0, 2,
		1, 7, 1, 1, 0, 0, 2, 0, 2, 1, 1, 0, 6, 1, 0, 0, 2, 7, 2, 0, 0, 0, 0, 1, 2, 2, 2, 1, 0, 1},
}

// TestWholeNodeNonFinite: a NaN coordinate in any row of a leaf makes that
// axis of the leaf's box, and of every box above it, NaN, so no node holding
// the row is ever emitted wholesale (a NaN row is no one's neighbour), while
// an infinite row only keeps its own boxes from being inside a finite ball.
func TestWholeNodeNonFinite(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		pts := make([]geom.Point, 200)
		for i := range pts {
			pts[i] = make(geom.Point, d)
			for j := range pts[i] {
				pts[i][j] = float64((i*7+j)%5) / 4
			}
		}
		for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
			pts[30*k+11][(k+d-1)%d] = v
		}
		tr := BulkLoad(d, 8, pts, nil)
		for _, r := range []float64{1, 10, 1e300} {
			for _, strict := range []bool{true, false} {
				c := pts[0]
				want, plain := tr.SphereInto(c, r, strict, nil)
				got, calcs, rows := tr.SphereIDsIntoAt(0, c, r, strict, nil)
				if !equalInts(got, want) || calcs+rows != plain {
					t.Fatalf("d=%d r=%g strict=%v: %v (%d calcs + %d emitted), plain walk %v (%d calcs)", d, r, strict, got, calcs, rows, want, plain)
				}
				sort.Ints(got)
				if brute := bruteSphere(pts, c, r, strict); !equalInts(got, brute) {
					t.Fatalf("d=%d r=%g strict=%v: %v, brute force %v", d, r, strict, got, brute)
				}
			}
		}
	}
}

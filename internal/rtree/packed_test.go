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
// computations, for strict and closed balls around a set of centres.
func sameWalk(f *Packed, root int32, ref *Tree, centres []geom.Point, radii []float64) error {
	for _, c := range centres {
		for _, r := range radii {
			for _, strict := range []bool{true, false} {
				var gotD, wantD []float64
				got, gotCalcs := f.SphereDistIntoAt(root, c, r, strict, nil, &gotD)
				want, wantCalcs := refSphereDistInto(ref, c, r, strict, nil, &wantD)
				if !equalInts(got, want) || !equalFloats(gotD, wantD) || gotCalcs != wantCalcs {
					return fmt.Errorf("centre %v r=%g strict=%v: packed %v %v (%d calcs), reference %v %v (%d calcs)",
						c, r, strict, got, gotD, gotCalcs, want, wantD, wantCalcs)
				}
			}
		}
	}
	return nil
}

// TestPackedMatchesReference: packing changes where a tree's bytes live and
// nothing a query can observe. The packed STR tree against the pointer STR
// loader it replaced, and Freeze against the grown tree it copies, on random
// and on tie-heavy sets; the node count is the one NodeCount predicts.
func TestPackedMatchesReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 14} {
		for _, n := range []int{1, 5, 16, 17, 40, 300, 5000} {
			for _, kind := range []string{"random", "lattice"} {
				rng := rand.New(rand.NewSource(int64(1000*d + n)))
				pts := randPoints(rng, n, d)
				radii := []float64{0, 3, 25, 60 * math.Sqrt(float64(d)), math.Inf(1)}
				if kind == "lattice" {
					pts = latticePoints(rng, n, d)
					radii = []float64{0, 1, 2, math.Sqrt(float64(d)), math.Inf(1)}
				}
				centres := append(randPoints(rng, 3, d), pts[0], pts[n/2], pts[n-1])
				for _, fan := range []int{4, 16} {
					name := fmt.Sprintf("d=%d n=%d %s fan-out %d", d, n, kind, fan)
					ref := refBulkLoad(d, fan, pts, nil)
					packed := BulkLoad(d, fan, pts, nil)
					if err := sameWalk(packed, 0, ref, centres, radii); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
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
					if err := sameWalk(frozen, 0, grown, centres, radii); err != nil {
						t.Fatalf("%s, Freeze: %v", name, err)
					}
					if nodes, rows := invariantCheck(t, frozen, 0); nodes != countNodes(grown.root) || rows != n {
						t.Fatalf("%s, Freeze: walk reached %d nodes of %d, %d of %d rows", name, nodes, countNodes(grown.root), rows, n)
					}
				}
			}
		}
	}
}

// TestForestTreesAreIndependent: trees packed side by side into one forest,
// from scattered rows of one set and in any order, answer like trees
// bulk-loaded on their own, and fill the arenas exactly.
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
	f := NewForest(d, fan, int(roots[len(groups)]), len(pts))
	p := f.Packer()
	for _, k := range rng.Perm(len(groups)) {
		p.Pack(roots[k], rowAt[k], set, groups[k])
	}
	nodes, rows := 0, 0
	for k, g := range groups {
		sub := make([]geom.Point, len(g))
		ids := make([]int, len(g))
		for i, id := range g {
			sub[i], ids[i] = pts[id], int(id)
		}
		ref := refBulkLoad(d, fan, sub, ids)
		if err := sameWalk(f, roots[k], ref, pts[:5], []float64{0, 1, 2.5, math.Inf(1)}); err != nil {
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
// fan-out 4…16 — the packed tree against brute force for the hit set, and
// against the reference loader for order, distances and distance count.
func FuzzPackedSphere(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{1, 12, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{14, 3, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 254, 253, 252, 251, 250})
	f.Add([]byte{3, 7})
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
		radii := []float64{0, 1, 2, math.Sqrt(float64(d)), 3.5}
		centres := []geom.Point{pts[0], pts[n-1], pts[n/2]}
		if err := sameWalk(packed, 0, ref, centres, radii); err != nil {
			t.Fatal(err)
		}
		for _, c := range centres {
			for _, r := range radii {
				for _, strict := range []bool{true, false} {
					got, _ := packed.SphereInto(c, r, strict, nil)
					sort.Ints(got)
					if want := bruteSphere(pts, c, r, strict); !equalInts(got, want) {
						t.Fatalf("d=%d fan-out %d centre %v r=%g strict=%v: got %v, brute force %v", d, fan, c, r, strict, got, want)
					}
				}
			}
		}
	})
}

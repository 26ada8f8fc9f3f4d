package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"mudbscan/internal/geom"
)

// SphereInto must return exactly the sphere's contents as brute force finds
// them, strict and closed, on grown and bulk-loaded trees, through a reused
// buffer; SphereDistInto the same ids in the same order, each with the
// kernel's own squared distance. (Hit order and the distance-calculation
// count are pinned end to end by internal/core's driver_test.go hashes and
// counters.)
func TestSphereIntoMatchesSphere(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 6, 14} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		pts := randPoints(rng, 600, d)
		grown := New(d, 8)
		for i, p := range pts {
			grown.Insert(i, p)
		}
		for _, tr := range []*Packed{Freeze(grown), BulkLoad(d, 8, pts, nil)} {
			buf := make([]int, 0, 64)
			for trial := 0; trial < 40; trial++ {
				c := pts[rng.Intn(len(pts))]
				r := rng.Float64() * 30
				strict := trial%2 == 0
				got, calcs := tr.SphereInto(c, r, strict, buf[:0])
				buf = got
				if calcs < len(got) || calcs > len(pts) {
					t.Fatalf("d=%d distCalcs %d outside [%d hits, %d points]", d, calcs, len(got), len(pts))
				}
				dist := []float64{-1}
				withDist, distCalcs := tr.SphereDistIntoAt(0, c, r, strict, []int{-1}, &dist)
				if !equalInts(withDist[1:], got) || distCalcs != calcs || len(dist) != len(withDist) || dist[0] != -1 {
					t.Fatalf("d=%d SphereDistInto: ids %v (%d calcs, %d distances), SphereInto %v (%d calcs)",
						d, withDist[1:], distCalcs, len(dist)-1, got, calcs)
				}
				for k, id := range got {
					if want := geom.DistSq(pts[id], c); dist[k+1] != want {
						t.Fatalf("d=%d SphereDistInto: distance of hit %d is %v, want %v", d, id, dist[k+1], want)
					}
				}
				got = append([]int(nil), got...)
				sort.Ints(got)
				if want := bruteSphere(pts, c, r, strict); !equalInts(got, want) {
					t.Fatalf("d=%d strict=%v SphereInto diverges from brute force: got %v want %v", d, strict, got, want)
				}
			}
		}
	}
}

func TestSphereIntoAppendsToDst(t *testing.T) {
	tr := New(2, 0)
	tr.Insert(7, geom.Point{0, 0})
	dst := []int{42}
	got, _ := Freeze(tr).SphereInto(geom.Point{0, 0}, 1, true, dst)
	if !equalInts(got, []int{42, 7}) {
		t.Fatalf("got %v", got)
	}
}

// A steady-state ε-query through SphereInto must not allocate: the scratch
// buffer is reused and the tree walk is closure-free.
func TestSphereIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randPoints(rng, 2000, 3)
	tr := BulkLoad(3, 16, pts, nil)
	buf := make([]int, 0, 2048)
	centers := pts[:64]
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = tr.SphereInto(centers[i%len(centers)], 8, true, buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("SphereInto allocated %.1f times per query; want 0", allocs)
	}
}

// The distance-carrying query shares the contract: two warmed buffers, no
// allocation.
func TestSphereDistIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := randPoints(rng, 2000, 5)
	tr := BulkLoad(5, 16, pts, nil)
	buf, dist := make([]int, 0, 2048), make([]float64, 0, 2048)
	centers := pts[:64]
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dist = dist[:0]
		buf, _ = tr.SphereDistIntoAt(0, centers[i%len(centers)], 30, true, buf[:0], &dist)
		i++
	})
	if allocs != 0 {
		t.Fatalf("SphereDistInto allocated %.1f times per query; want 0", allocs)
	}
	if len(dist) != len(buf) || len(buf) < 2 {
		t.Fatalf("%d ids, %d distances", len(buf), len(dist))
	}
}

// The whole-node walk shares the contract: one warmed buffer, no allocation,
// with radii that emit nodes wholesale and radii that scan.
func TestSphereIDsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := randPoints(rng, 2000, 5)
	tr := BulkLoad(5, 16, pts, nil)
	buf := make([]int, 0, 2048)
	centers := pts[:64]
	i, emitted := 0, 0
	allocs := testing.AllocsPerRun(200, func() {
		var rows int
		buf, _, rows = tr.SphereIDsIntoAt(0, centers[i%len(centers)], float64(10+i%3*120), true, buf[:0])
		emitted += rows
		i++
	})
	if allocs != 0 {
		t.Fatalf("SphereIDsIntoAt allocated %.1f times per query; want 0", allocs)
	}
	if emitted == 0 {
		t.Fatal("no node was emitted wholesale")
	}
}

func TestBulkLoadSetMatchesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randPoints(rng, 700, 3)
	set := geom.PointSetFromPoints(3, pts)
	a := BulkLoad(3, 8, pts, nil)
	b := BulkLoadSet(8, set, nil)
	for trial := 0; trial < 30; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 25
		ga := collectSphere(a, c, r, true)
		gb := collectSphere(b, c, r, true)
		sort.Ints(ga)
		sort.Ints(gb)
		if !equalInts(ga, gb) {
			t.Fatalf("BulkLoadSet diverges from BulkLoad")
		}
	}
	if BulkLoadSet(8, geom.NewPointSet(3, 0), nil).Len() != 0 {
		t.Fatal("empty BulkLoadSet")
	}
}

func benchTree(b *testing.B, d int) (*Packed, []geom.Point) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(d)))
	pts := randPoints(rng, 20000, d)
	return BulkLoad(d, 16, pts, nil), pts
}

func benchmarkSphere(b *testing.B, d int) {
	tr, pts := benchTree(b, d)
	buf := make([]int, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = tr.SphereInto(pts[i%len(pts)], 3, true, buf[:0])
	}
	_ = buf
}

func BenchmarkSphereInto2D(b *testing.B) { benchmarkSphere(b, 2) }
func BenchmarkSphereInto3D(b *testing.B) { benchmarkSphere(b, 3) }

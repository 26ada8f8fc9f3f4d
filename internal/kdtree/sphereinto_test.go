package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"mudbscan/internal/geom"
)

func randPts(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// SphereInto through a reused buffer returns exactly the sphere's contents
// as brute force finds them, strict and closed.
func TestSphereIntoMatchesSphere(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 6} {
		rng := rand.New(rand.NewSource(int64(200 + d)))
		pts := randPts(rng, 800, d)
		tr := Build(d, pts, nil)
		buf := make([]int, 0, 128)
		for trial := 0; trial < 40; trial++ {
			c := pts[rng.Intn(len(pts))]
			r := rng.Float64() * 30
			strict := trial%2 == 0
			got, calcs := tr.SphereInto(c, r, strict, buf[:0])
			buf = got
			if calcs < len(got) || calcs > len(pts) {
				t.Fatalf("d=%d distCalcs %d outside [%d hits, %d points]", d, calcs, len(got), len(pts))
			}
			got = append([]int(nil), got...)
			sort.Ints(got)
			want := bruteSphere(pts, c, r, strict)
			if len(got) != len(want) {
				t.Fatalf("d=%d strict=%v %d hits vs %d", d, strict, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("d=%d strict=%v ids diverge from brute force at %d: %d vs %d", d, strict, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSphereIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := randPts(rng, 2000, 3)
	tr := Build(3, pts, nil)
	buf := make([]int, 0, 2048)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = tr.SphereInto(pts[i%64], 8, true, buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("SphereInto allocated %.1f times per query; want 0", allocs)
	}
}

func TestBuildSetMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := randPts(rng, 500, 2)
	a := Build(2, pts, nil)
	b := BuildSet(geom.PointSetFromPoints(2, pts), nil)
	for trial := 0; trial < 20; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 20
		ga, _ := a.SphereInto(c, r, true, nil)
		gb, _ := b.SphereInto(c, r, true, nil)
		if len(ga) != len(gb) {
			t.Fatalf("BuildSet diverges from Build")
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("BuildSet hit order diverges")
			}
		}
	}
}

func benchmarkKDSphere(b *testing.B, d int) {
	rng := rand.New(rand.NewSource(int64(d)))
	pts := randPts(rng, 20000, d)
	tr := Build(d, pts, nil)
	buf := make([]int, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = tr.SphereInto(pts[i%len(pts)], 3, true, buf[:0])
	}
	_ = buf
}

func BenchmarkKDSphereInto2D(b *testing.B) { benchmarkKDSphere(b, 2) }
func BenchmarkKDSphereInto3D(b *testing.B) { benchmarkKDSphere(b, 3) }

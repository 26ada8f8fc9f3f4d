package mc

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mudbscan/internal/geom"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// leafRows returns the start of the forest's leaf rows.
func leafRows(ix *Index) uintptr {
	return reflect.ValueOf(ix.aux).Elem().FieldByName("rows").Pointer()
}

// TestBlockReadInPlace: BuildSet's Index reorders the caller's block in
// place — it shares the backing array, and so do the auxiliary trees'
// leaves — reads every point by its id, is the Index Build builds over a
// copy, and Restore gives the block back bit for bit: −0.0, subnormals and
// ±1e300 included.
func TestBlockReadInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 2, 10)
	pts[3] = geom.Point{math.Copysign(0, -1), 0}
	pts[4] = geom.Point{math.SmallestNonzeroFloat64, -0x1p-1030}
	pts[5] = geom.Point{1e300, -1e300}
	pts[6] = geom.Point{-1e300, math.Copysign(0, -1)}
	set := geom.PointSetFromPoints(2, pts)
	before := append([]float64(nil), set.Data()...)

	ix := BuildSet(set, 0.7, 4, Options{})
	if &ix.Points.Data()[0] != &set.Data()[0] {
		t.Fatal("BuildSet copied the set")
	}
	if leafRows(ix) != uintptr(unsafe.Pointer(&set.Data()[0])) {
		t.Fatal("the auxiliary trees hold rows of their own")
	}
	for id := range pts {
		if !sameBits(ix.Point(id), before[2*id:2*id+2]) {
			t.Fatalf("Point(%d) = %v, want input row %v", id, ix.Point(id), before[2*id:2*id+2])
		}
	}
	if err := sameBytes(ix, Build(pts, 0.7, 4, Options{})); err != nil {
		t.Fatalf("BuildSet built a different Index than Build: %v", err)
	}
	ix.Restore()
	if !sameBits(set.Data(), before) {
		t.Fatal("Restore did not give the block back bit for bit")
	}
	ix.Restore()
	if !sameBits(set.Data(), before) {
		t.Fatal("a second Restore moved the block")
	}
}

// TestBlockBuildSetAllocBudget: the coordinates exist once. Beyond its
// n-sized arrays — PointMC, the member arena and the forest's ids in leaf
// order, CenterDist, and pos — BuildSet over n×5 rows allocates less than
// one more copy of the rows would take, so a leaf row copy (or a gather
// scratch of one tree's rows) cannot come back unnoticed.
func TestBlockBuildSetAllocBudget(t *testing.T) {
	const n, d = 20000, 5
	rng := rand.New(rand.NewSource(5))
	set := geom.PointSetFromPoints(d, randPoints(rng, n, d, 4))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := BuildSet(set, 1, 5, Options{SkipReachable: true})
	runtime.ReadMemStats(&after)
	arrays := uint64(n * (4 + 4 + 8 + 8 + 4))
	beyond := after.TotalAlloc - before.TotalAlloc - arrays
	if rows := uint64(n * d * 8); beyond >= rows {
		t.Errorf("BuildSet allocated %d bytes beyond its n-sized arrays (m=%d); want < %d, one copy of the rows", beyond, ix.NumMCs(), rows)
	}
	t.Logf("m=%d, %d bytes beyond the n-sized arrays", ix.NumMCs(), beyond)
	ix.Restore()
}

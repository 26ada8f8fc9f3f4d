package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPointSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point(randVec(rng, 4))
	}
	s := PointSetFromPoints(4, pts)
	if s.Len() != 100 || s.Dim() != 4 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	for i, p := range pts {
		if !s.Point(i).Equal(p) {
			t.Fatalf("row %d mismatch", i)
		}
		for k := 0; k < 4; k++ {
			if s.Coord(i, k) != p[k] {
				t.Fatalf("Coord(%d,%d)", i, k)
			}
		}
	}
}

func TestPointSetRowIsCapacityCapped(t *testing.T) {
	s := NewPointSet(2, 4)
	s.Append(Point{1, 2})
	s.Append(Point{3, 4})
	row := s.Row(0)
	// An append through the row view must not clobber row 1.
	_ = append(row, 99)
	if s.Coord(1, 0) != 3 {
		t.Fatal("append through a row view clobbered the next row")
	}
}

func TestPointSetSwapAndBlock(t *testing.T) {
	s := PointSetFromPoints(2, []Point{{0, 1}, {2, 3}, {4, 5}})
	s.Swap(0, 2)
	if !s.Point(0).Equal(Point{4, 5}) || !s.Point(2).Equal(Point{0, 1}) {
		t.Fatal("swap failed")
	}
	s.Swap(1, 1)
	block := s.Block(1, 3)
	if len(block) != 4 || block[0] != 2 || block[3] != 1 {
		t.Fatalf("block %v", block)
	}
}

func TestPointSetTruncateKeepsCapacity(t *testing.T) {
	s := NewPointSet(3, 8)
	for i := 0; i < 8; i++ {
		s.Append(Point{float64(i), 0, 0})
	}
	base := &s.Data()[0]
	s.Truncate(2)
	if s.Len() != 2 || s.Coord(1, 0) != 1 {
		t.Fatal("truncate should keep the first rows")
	}
	s.Truncate(0)
	if s.Len() != 0 {
		t.Fatal("truncate(0) should empty the set")
	}
	s.Append(Point{9, 9, 9})
	if &s.Data()[0] != base {
		t.Fatal("truncate should keep the backing array")
	}
}

func TestPointSetMBRAndMBRFromBlock(t *testing.T) {
	s := PointSetFromPoints(2, []Point{{1, 5}, {-2, 3}, {4, -1}})
	m := s.MBR()
	if !m.Min.Equal(Point{-2, -1}) || !m.Max.Equal(Point{4, 5}) {
		t.Fatalf("MBR %v", m)
	}
	m2 := MBRFromBlock(s.Data(), 2)
	if !m2.Min.Equal(m.Min) || !m2.Max.Equal(m.Max) {
		t.Fatal("MBRFromBlock diverges from MBR")
	}
}

func TestPointSetDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPointSet(2, 0).Append(Point{1})
}

func TestOverlapsRegionMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		m := MBRFromPoint(Point(randVec(rng, d)))
		m.ExtendPoint(Point(randVec(rng, d)))
		p := Point(randVec(rng, d))
		r := rng.Float64() * 15
		if m.OverlapsRegion(p, r) != m.Overlaps(Region(p, r)) {
			t.Fatalf("OverlapsRegion diverges from Overlaps(Region) at d=%d", d)
		}
	}
}

// TestAdoptPointSet: the set reads the caller's block in place, its
// capacity is capped so an Append reallocates, and a block that is not a
// whole number of rows is refused.
func TestAdoptPointSet(t *testing.T) {
	backing := []float64{1, 2, 3, 4, 99, 99}
	s := AdoptPointSet(2, backing[:4])
	if s.Len() != 2 || &s.Data()[0] != &backing[0] || cap(s.Data()) != 4 {
		t.Fatalf("Len %d, cap %d, shares %v", s.Len(), cap(s.Data()), &s.Data()[0] == &backing[0])
	}
	s.Append(Point{5, 6})
	if backing[4] != 99 || backing[5] != 99 {
		t.Fatal("Append wrote past the adopted block")
	}
	if got := s.Points(); len(got) != 3 || !got[2].Equal(Point{5, 6}) {
		t.Fatalf("Points = %v", got)
	}
	if AdoptPointSet(3, nil).Points() != nil {
		t.Fatal("an empty set's Points is not nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a ragged block was adopted")
		}
	}()
	AdoptPointSet(3, backing[:4])
}

// TestPermuteRows: row r becomes the old row perm[r], for cyclic and random
// permutations; perm is left as it was; and the inverse permutation puts
// every row back.
func TestPermuteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 7, 300} {
		s := NewPointSet(3, n)
		for i := 0; i < n; i++ {
			s.Append(Point(randVec(rng, 3)))
		}
		before := slices.Clone(s.Data())
		shift := make([]int32, n)
		for r := range shift {
			shift[r] = int32((r + 1) % n)
		}
		random := make([]int32, n)
		for r, v := range rng.Perm(n) {
			random[r] = int32(v)
		}
		for _, perm := range [][]int32{shift, random} {
			kept := slices.Clone(perm)
			PermuteRows(s.Data(), 3, perm)
			if !slices.Equal(perm, kept) {
				t.Fatalf("n=%d: PermuteRows left perm changed", n)
			}
			inv := make([]int32, n)
			for r, from := range perm {
				if !slices.Equal(s.Row(r), before[int(from)*3:int(from)*3+3]) {
					t.Fatalf("n=%d: row %d is not old row %d", n, r, from)
				}
				inv[from] = int32(r)
			}
			PermuteRows(s.Data(), 3, inv)
			if !slices.Equal(s.Data(), before) {
				t.Fatalf("n=%d: the inverse permutation did not restore the rows", n)
			}
		}
	}
}

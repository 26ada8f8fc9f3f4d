package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyMBR(t *testing.T) {
	m := NewMBR(3)
	if !m.IsEmpty() {
		t.Fatal("NewMBR should be empty")
	}
	if m.Area() != 0 {
		t.Fatal("empty MBR should have zero area")
	}
	m.ExtendPoint(Point{1, 2, 3})
	if m.IsEmpty() {
		t.Fatal("extended MBR should not be empty")
	}
	if !m.Contains(Point{1, 2, 3}) {
		t.Fatal("MBR should contain its defining point")
	}
}

func TestMBRFromPointsAndContains(t *testing.T) {
	pts := []Point{{0, 0}, {2, 1}, {1, 3}}
	m := MBRFromPoints(pts)
	if !m.Min.Equal(Point{0, 0}) || !m.Max.Equal(Point{2, 3}) {
		t.Fatalf("bad bounds: %v", m)
	}
	for _, p := range pts {
		if !m.Contains(p) {
			t.Errorf("MBR should contain %v", p)
		}
	}
	if m.Contains(Point{2.1, 0}) {
		t.Error("contains point outside max")
	}
	if m.Contains(Point{-0.1, 0}) {
		t.Error("contains point outside min")
	}
	// Closed bounds: boundary points are contained.
	if !m.Contains(Point{2, 3}) || !m.Contains(Point{0, 0}) {
		t.Error("closed bounds must include boundary")
	}
}

func TestMBRFromPointsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MBRFromPoints(nil)
}

func TestOverlaps(t *testing.T) {
	a := MBR{Min: Point{0, 0}, Max: Point{2, 2}}
	b := MBR{Min: Point{1, 1}, Max: Point{3, 3}}
	c := MBR{Min: Point{3, 3}, Max: Point{4, 4}}
	d := MBR{Min: Point{2, 2}, Max: Point{5, 5}} // touches a at a corner
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c are disjoint")
	}
	if !a.Overlaps(d) {
		t.Error("touching rectangles overlap under closed bounds")
	}
}

func TestExpandedAndRegion(t *testing.T) {
	m := Region(Point{1, 1}, 0.5)
	if !m.Min.Equal(Point{0.5, 0.5}) || !m.Max.Equal(Point{1.5, 1.5}) {
		t.Fatalf("Region wrong: %v", m)
	}
	e := m.Expanded(0.5)
	if !e.Min.Equal(Point{0, 0}) || !e.Max.Equal(Point{2, 2}) {
		t.Fatalf("Expanded wrong: %v", e)
	}
	// original untouched
	if !m.Min.Equal(Point{0.5, 0.5}) {
		t.Fatal("Expanded mutated receiver")
	}
}

func TestAreaMarginCenter(t *testing.T) {
	m := MBR{Min: Point{0, 0, 0}, Max: Point{2, 3, 4}}
	if m.Area() != 24 {
		t.Errorf("Area=%g want 24", m.Area())
	}
	if !m.Center().Equal(Point{1, 1.5, 2}) {
		t.Errorf("Center=%v", m.Center())
	}
}

func TestEnlargementArea(t *testing.T) {
	m := MBR{Min: Point{0, 0}, Max: Point{1, 1}}
	o := MBR{Min: Point{2, 0}, Max: Point{3, 1}}
	if got := m.EnlargementArea(o); got != 2 {
		t.Errorf("EnlargementArea=%g want 2", got)
	}
	if got := m.EnlargementArea(m); got != 0 {
		t.Errorf("EnlargementArea(self)=%g want 0", got)
	}
}

func TestMinDistSq(t *testing.T) {
	m := MBR{Min: Point{0, 0}, Max: Point{1, 1}}
	if got := m.MinDistSq(Point{0.5, 0.5}); got != 0 {
		t.Errorf("inside point dist=%g", got)
	}
	if got := m.MinDistSq(Point{2, 0.5}); got != 1 {
		t.Errorf("side dist=%g want 1", got)
	}
	if got := m.MinDistSq(Point{2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("corner dist=%g want 2", got)
	}
}

// Property: the MBR of random points contains them all and has MinDistSq 0 for
// each, and Extend is commutative with pointwise extension.
func TestMBRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(rng, d)
		}
		m := MBRFromPoints(pts)
		for _, p := range pts {
			if !m.Contains(p) || m.MinDistSq(p) != 0 {
				return false
			}
		}
		// Extend is commutative with pointwise extension.
		m2 := NewMBR(d)
		for _, p := range pts {
			m2.Extend(MBRFromPoint(p))
		}
		return m.Min.Equal(m2.Min) && m.Max.Equal(m2.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

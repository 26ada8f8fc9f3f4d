package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistSq(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 25},
		{Point{1, 1, 1}, Point{1, 1, 1}, 0},
		{Point{-1}, Point{2}, 9},
		{Point{0, 0, 0, 0}, Point{1, 1, 1, 1}, 4},
	}
	for _, c := range cases {
		if got := DistSq(c.p, c.q); got != c.want {
			t.Errorf("DistSq(%v,%v)=%g want %g", c.p, c.q, got, c.want)
		}
		if got := Dist(c.p, c.q); math.Abs(got-math.Sqrt(c.want)) > 1e-12 {
			t.Errorf("Dist(%v,%v)=%g want %g", c.p, c.q, got, math.Sqrt(c.want))
		}
	}
}

func TestDistSqPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	DistSq(Point{1, 2}, Point{1})
}

func TestWithinStrictness(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4} // dist exactly 5
	if Within(p, q, 5) {
		t.Error("Within must be strict: dist==r should be false")
	}
	if !Within(p, q, 5.0001) {
		t.Error("Within(5.0001) should be true")
	}
}

func TestCloneAndEqual(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Fatal("clone aliases original")
	}
	if p.Equal(Point{1, 2}) {
		t.Fatal("different dims must not be equal")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String()=%q", got)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		d := 1 + rng.Intn(8)
		p, q, r := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		if math.Abs(Dist(p, q)-Dist(q, p)) > 1e-12 {
			return false
		}
		return Dist(p, r) <= Dist(p, q)+Dist(q, r)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randPoint(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.NormFloat64() * 10
	}
	return p
}

package geom

import (
	"math"
	"testing"
)

func TestFloorClamp(t *testing.T) {
	const lo, hi = -8, 8
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0, 0}, {0.999, 0}, {1, 1}, {-0.001, -1}, {-1, -1}, {-1.5, -2},
		{7.9, 7}, {8, 8}, {8.5, 8}, {1e300, 8}, {math.Inf(1), 8},
		{-7.5, -8}, {-8, -8}, {-9, -8}, {-1e300, -8}, {math.Inf(-1), -8},
		{math.NaN(), -8},
	} {
		if got := FloorClamp(c.q, lo, hi); got != c.want {
			t.Errorf("FloorClamp(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	// The widest ranges in use: every float64 must land inside them.
	for _, lim := range []int64{math.MaxInt32, 1 << 52, 1 << 61} {
		for _, q := range []float64{float64(lim), -float64(lim), math.Nextafter(float64(lim), 0), math.MaxFloat64, -math.MaxFloat64} {
			if got := FloorClamp(q, -lim, lim); got < -lim || got > lim {
				t.Errorf("FloorClamp(%g, ±%d) = %d escapes the range", q, lim, got)
			}
		}
	}
	// Monotone: a larger quotient never maps to a smaller cell.
	prev := FloorClamp(-20, lo, hi)
	for q := -20.0; q <= 20; q += 0.37 {
		if c := FloorClamp(q, lo, hi); c < prev {
			t.Fatalf("not monotone at %g: %d after %d", q, c, prev)
		} else {
			prev = c
		}
	}
}

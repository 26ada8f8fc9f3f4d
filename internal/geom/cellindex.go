package geom

import "math"

// FloorClamp returns ⌊q⌋ clamped to [lo, hi]: the one conversion from a
// coordinate quotient v/side to an integer grid-cell index that the cell
// engine's table and the micro-cluster centre directory share. It is monotone in q and defined for every input — NaN
// maps to lo, ±Inf and out-of-range quotients to the nearer bound — so the
// float→int conversion never sees a value it is undefined for. lo and hi
// must be exactly representable as float64.
func FloorClamp(q float64, lo, hi int64) int64 {
	f := math.Floor(q)
	if !(f > float64(lo)) {
		return lo
	}
	if f >= float64(hi) {
		return hi
	}
	return int64(f)
}

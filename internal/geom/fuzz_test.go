package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refBoundedSq is the plain reference every loop kernel is held to: DistSq's
// order with one accumulator, and a look at limit after each full 4-block
// that returns the partial sum once it exceeds limit. At d ≤ 3 there is no
// look, so the sum is always complete.
func refBoundedSq(p, q []float64, limit float64) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
		if i%4 == 3 && s > limit {
			return s
		}
	}
	return s
}

// sameBits: equal bit patterns, or both NaN (a NaN's payload depends on
// which operand the hardware propagates, which no kernel promises).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// fuzzFloats lays coordinates out as FuzzLoopKernels reads them.
func fuzzFloats(v ...float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// repeat concatenates count copies of v.
func repeat(v []float64, count int) []float64 {
	var out []float64
	for range count {
		out = append(out, v...)
	}
	return out
}

// FuzzLoopKernels holds every loop kernel, BoundedDistSq and KernelFor to
// refBoundedSq bit for bit at every d from 1 to 16: ids and their order, d²
// values, bounded sums past the limit, and the nearest id with its done.
// data is the query point and then the rows, one float64 of 8 bytes per
// coordinate. mode picks the limit: the given one, or (for mode 1…4) the
// exact sum of row pick, its two float neighbours, or its partial sum after
// coordinate 4, so sums land exactly on the limit whatever the coordinates.
func FuzzLoopKernels(f *testing.F) {
	// Seeds name d as d−1, the fuzzer's dim. At every d: lattice rows, whose
	// sums are exact, so limits land on them and on the partial sums after
	// coordinate 4, closed and open; and Gaussian rows, whose sums round, so
	// any change of summation order shows.
	rng := rand.New(rand.NewSource(11))
	for d := 1; d <= 16; d++ {
		lattice, gauss := make([]float64, 7*d), make([]float64, 7*d)
		for i := range lattice {
			lattice[i], gauss[i] = float64((i*7+i/d*3)%5)*0.5, rng.NormFloat64()*10
		}
		for mode := uint8(1); mode <= 4; mode++ {
			f.Add(uint8(d-1), fuzzFloats(lattice...), 0.0, 0.0, mode%2 == 0, uint8(d), mode)
			f.Add(uint8(d-1), fuzzFloats(lattice...), 0.0, 0.0, mode%2 == 1, uint8(d+1), mode)
			f.Add(uint8(d-1), fuzzFloats(gauss...), 0.0, 50.0*float64(d), mode%2 == 0, uint8(d), mode)
		}
	}
	tiny, huge, negZero := math.SmallestNonzeroFloat64, 1e300, math.Copysign(0, -1)
	f.Add(uint8(4), fuzzFloats(0, negZero, 0, negZero, 0, 0, 0, 0, 0, 0, negZero, 0, negZero, 0, negZero, 1, 0, 0, 0, 0), 0.0, 0.0, true, uint8(0), uint8(0))
	f.Add(uint8(5), fuzzFloats(tiny, -tiny, 0, tiny, 0, 0, tiny, 0, -tiny, 0, tiny, 2*tiny, 0, 0, 0, 0, 0, 0), 0.0, 0.0, false, uint8(1), uint8(1))
	f.Add(uint8(5), fuzzFloats(huge, -huge, 0, 1, 2, 3, -huge, huge, 0, 1, 2, 3, 0, 0, 0, 0, 0, 0, math.Inf(1), 0, 0, 0, 0, 0), 1.0, 0.0, true, uint8(2), uint8(1))
	f.Add(uint8(7), fuzzFloats(repeat([]float64{huge, 1, -0.5, 2}, 8)...), math.Inf(1), math.Inf(1), true, uint8(1), uint8(0))
	f.Add(uint8(2), fuzzFloats(1, 1, 2, math.NaN(), 3, 0, 0, 0, 0), 4.0, 1.0, true, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, dim uint8, data []byte, limit, accept float64, closed bool, pick, mode uint8) {
		d := 1 + int(dim)%16
		v := make([]float64, len(data)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := min(len(v)/d-1, 64)
		if n < 1 {
			return
		}
		p, rows := v[:d], v[d:d+n*d]
		row := func(k int) []float64 { return rows[k*d : (k+1)*d] }
		if mode%5 != 0 {
			exact := refBoundedSq(p, row(int(pick)%n), math.Inf(1))
			switch mode % 5 {
			case 1:
				limit = exact
			case 2:
				limit = math.Nextafter(exact, math.Inf(-1))
			case 3:
				limit = math.Nextafter(exact, math.Inf(1))
			case 4:
				limit = refBoundedSq(p[:min(d, 4)], row(int(pick) % n)[:min(d, 4)], math.Inf(1))
			}
		}
		kern := KernelFor(d)
		within := func(s float64) bool { return s < limit || closed && s == limit }

		var wantIDs []int
		var wantDist []float64
		ids := make([]int, n)
		for k := range n {
			ids[k] = 3*k + 1
			if got, want := kern(p, row(k)), refBoundedSq(p, row(k), math.Inf(1)); !sameBits(got, want) {
				t.Fatalf("d=%d row %d: KernelFor %v, reference %v", d, k, got, want)
			}
			want := refBoundedSq(p, row(k), limit)
			if got := BoundedDistSq(p, row(k), limit); !sameBits(got, want) {
				t.Fatalf("d=%d row %d limit %v: BoundedDistSq %v, reference %v", d, k, limit, got, want)
			}
			if within(want) {
				wantIDs, wantDist = append(wantIDs, ids[k]), append(wantDist, want)
			}
		}
		dist := []float64{-1}
		gotIDs := AppendWithinBlockDist([]int{-1}, &dist, ids, rows, d, p, limit, closed)
		if !slices.Equal(gotIDs[1:], wantIDs) || len(dist) != len(gotIDs) || !slices.EqualFunc(dist[1:], wantDist, sameBits) {
			t.Fatalf("d=%d limit %v closed=%v: block scan %v %v, reference %v %v", d, limit, closed, gotIDs[1:], dist[1:], wantIDs, wantDist)
		}
		if got := AppendWithinBlock(nil, ids, rows, d, p, limit, closed); !slices.Equal(got, wantIDs) {
			t.Fatalf("d=%d: id-only block scan %v, reference %v", d, got, wantIDs)
		}

		// The rows newest-first from the last, then row 0 named again.
		order := make([]int, n)
		gathered := make([]int32, 0, n+1)
		for i := range order {
			order[i] = n - 1 - i
			gathered = append(gathered, int32(n-1-i))
		}
		gathered = append(gathered, 0)
		got := AppendDistSqGathered([]float64{-1}, gathered, rows, d, p, limit)
		if len(got) != len(gathered)+1 {
			t.Fatalf("d=%d: gathered %d values for %d ids", d, len(got)-1, len(gathered))
		}
		for i, k := range gathered {
			if want := refBoundedSq(p, row(int(k)), limit); !sameBits(got[i+1], want) {
				t.Fatalf("d=%d limit %v: gathered row %d is %v, reference %v", d, limit, k, got[i+1], want)
			}
		}

		chain, head := linked(n, order)
		var wantLinked []int
		for _, k := range order {
			if within(refBoundedSq(p, row(k), limit)) {
				wantLinked = append(wantLinked, k)
			}
		}
		if got := AppendWithinLinked(nil, chain, head, rows, d, p, limit, closed); !slices.Equal(got, wantLinked) {
			t.Fatalf("d=%d limit %v closed=%v: linked %v, reference %v", d, limit, closed, got, wantLinked)
		}
		best, bestID, done := limit, -1, false
		for _, k := range order {
			if d2 := refBoundedSq(p, row(k), best); Nearer(d2, best, k, bestID, true) {
				best, bestID = d2, k
				if done = d2 < accept; done {
					break
				}
			}
		}
		if gotBest, gotID, gotDone := NearestLinked(chain, head, rows, d, p, limit, -1, accept); !sameBits(gotBest, best) || gotID != bestID || gotDone != done {
			t.Fatalf("d=%d limit %v accept %v: nearest (%v, %d, %v), reference (%v, %d, %v)", d, limit, accept, gotBest, gotID, gotDone, best, bestID, done)
		}
	})
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

// Every kernel must be bit-identical to the legacy DistSq loop: same
// subtraction, same squaring, same left-to-right accumulation order, so the
// float64 result is the same bit pattern, not merely close.
func TestKernelBitIdenticalToDistSq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 10; d++ {
		kern := KernelFor(d)
		for trial := 0; trial < 500; trial++ {
			p, q := randVec(rng, d), randVec(rng, d)
			want := DistSq(p, q)
			got := kern(p, q)
			if got != want {
				t.Fatalf("d=%d kernel %v != DistSq %v (bit mismatch)", d, got, want)
			}
			// Symmetry must also hold exactly: (a-b)² and (b-a)² round
			// identically under IEEE 754.
			if kern(q, p) != want {
				t.Fatalf("d=%d kernel not exactly symmetric", d)
			}
		}
	}
}

func TestAppendWithinBlockMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for d := 1; d <= 7; d++ {
		n := 300
		block := make([]float64, n*d)
		for i := range block {
			block[i] = rng.Float64() * 20
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * 3
		}
		for trial := 0; trial < 50; trial++ {
			center := randVec(rng, d)
			r2 := rng.Float64() * 100
			closed := trial%2 == 0
			var want []int
			for k := 0; k < n; k++ {
				d2 := DistSq(Point(block[k*d:(k+1)*d]), Point(center))
				if d2 < r2 || (closed && d2 == r2) {
					want = append(want, ids[k])
				}
			}
			got := AppendWithinBlock(nil, ids, block, d, center, r2, closed)
			if len(got) != len(want) {
				t.Fatalf("d=%d %d hits vs %d", d, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("d=%d order diverges at %d", d, i)
				}
			}
		}
	}
}

// The d² sink hands over exactly what the scan computed: the same ids in the
// same order as the id-only scan, each with the bit-identical kernel value —
// also past d = 4, where the scan may abandon a row early but never a hit —
// and it appends, to both buffers.
func TestAppendWithinBlockDistMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 16; d++ {
		kern := KernelFor(d)
		n := 200
		block := make([]float64, n*d)
		for i := range block {
			block[i] = rng.Float64() * 4
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		for trial := 0; trial < 30; trial++ {
			center := block[rng.Intn(n)*d:][:d]
			r2 := rng.Float64() * float64(d)
			closed := trial%2 == 0
			if trial%5 == 0 { // the radius of an actual row: the closed ball's boundary case
				r2 = kern(block[rng.Intn(n)*d:][:d], center)
			}
			want := AppendWithinBlock([]int{-1}, ids, block, d, center, r2, closed)
			dist := []float64{-1}
			got := AppendWithinBlockDist([]int{-1}, &dist, ids, block, d, center, r2, closed)
			if len(got) != len(want) || len(dist) != len(got) || got[0] != -1 || dist[0] != -1 {
				t.Fatalf("d=%d: %d ids, %d distances, id-only scan %d", d, len(got), len(dist), len(want))
			}
			for k := 1; k < len(got); k++ {
				if got[k] != want[k] {
					t.Fatalf("d=%d: hit %d is %d, id-only scan has %d", d, k, got[k], want[k])
				}
				if exact := kern(block[got[k]*d:][:d], center); dist[k] != exact {
					t.Fatalf("d=%d: distance of hit %d is %v, kernel says %v", d, got[k], dist[k], exact)
				}
			}
			hits := 0
			for k := 0; k < n; k++ {
				if d2 := kern(block[k*d:][:d], center); d2 < r2 || (closed && d2 == r2) {
					hits++
				}
			}
			if hits != len(got)-1 {
				t.Fatalf("d=%d closed=%v: %d hits, kernel finds %d", d, closed, len(got)-1, hits)
			}
		}
	}
}

// A bounded kernel may return early, but every comparison against the limit
// must come out as it does with the full kernel, and a value at or below the
// limit must be the full kernel's bits. Limits are drawn at random and set
// adversarially: the exact sum, its two float neighbours, and the partial
// sums at which the early exit looks.
func TestBoundedKernelAgreesOnTheLimitSide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for d := 1; d <= 16; d++ {
		kern, bounded := KernelFor(d), BoundedKernelFor(d)
		for trial := 0; trial < 300; trial++ {
			p, q := randVec(rng, d), randVec(rng, d)
			if trial%3 == 0 { // lattice coordinates: sums that hit a limit exactly
				for i := range p {
					p[i], q[i] = float64(rng.Intn(5))*0.5, float64(rng.Intn(5))*0.5
				}
			}
			exact := kern(p, q)
			limits := []float64{exact, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1)),
				rng.Float64() * 2 * exact, 0, math.Inf(1)}
			for cut := 4; cut < d; cut += 4 {
				part := kern(p[:cut], q[:cut])
				limits = append(limits, part, math.Nextafter(part, 0))
			}
			for _, limit := range limits {
				got := bounded(p, q, limit)
				if (got < limit) != (exact < limit) || (got == limit) != (exact == limit) {
					t.Fatalf("d=%d limit=%v: bounded %v, exact %v fall on different sides", d, limit, got, exact)
				}
				if exact <= limit && got != exact {
					t.Fatalf("d=%d limit=%v: bounded %v is not the exact %v", d, limit, got, exact)
				}
			}
		}
	}
}

func TestAppendWithinBlockAppends(t *testing.T) {
	dst := []int{99}
	got := AppendWithinBlock(dst, []int{5}, []float64{0, 0}, 2, []float64{0, 0}, 1, false)
	if len(got) != 2 || got[0] != 99 || got[1] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestKernelForDispatch(t *testing.T) {
	// The boundary condition the dispatch must honor: every dim gets a kernel
	// that works on vectors of exactly that length.
	for d := 1; d <= 12; d++ {
		p := make([]float64, d)
		q := make([]float64, d)
		p[d-1], q[d-1] = 3, 7
		if got := KernelFor(d)(p, q); got != 16 {
			t.Fatalf("d=%d got %v want 16", d, got)
		}
	}
}

// legacyDistSq mimics the pre-kernel hot path: dimension check plus the
// simple sequential loop on every call. The benchmark pair below is the
// microbenchmark evidence for the kernels' speedup claim.
func legacyDistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic("dim mismatch")
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

func benchmarkDistSq(b *testing.B, d int, legacy bool) {
	rng := rand.New(rand.NewSource(int64(d)))
	const m = 1024
	vecs := make([][]float64, m)
	for i := range vecs {
		vecs[i] = randVec(rng, d)
	}
	kern := KernelFor(d)
	var sink float64
	b.ResetTimer()
	if legacy {
		for i := 0; i < b.N; i++ {
			sink += legacyDistSq(vecs[i%m], vecs[(i+1)%m])
		}
	} else {
		for i := 0; i < b.N; i++ {
			sink += kern(vecs[i%m], vecs[(i+1)%m])
		}
	}
	_ = sink
}

func BenchmarkDistSqLegacy2D(b *testing.B) { benchmarkDistSq(b, 2, true) }
func BenchmarkDistSqKernel2D(b *testing.B) { benchmarkDistSq(b, 2, false) }
func BenchmarkDistSqLegacy3D(b *testing.B) { benchmarkDistSq(b, 3, true) }
func BenchmarkDistSqKernel3D(b *testing.B) { benchmarkDistSq(b, 3, false) }
func BenchmarkDistSqLegacy8D(b *testing.B) { benchmarkDistSq(b, 8, true) }
func BenchmarkDistSqKernel8D(b *testing.B) { benchmarkDistSq(b, 8, false) }

// benchmarkScan times the leaf scan over one 4096-row block at a radius that
// admits about a third of the rows, ids only or with the d² sink.
func benchmarkScan(b *testing.B, d int, sink bool) {
	rng := rand.New(rand.NewSource(int64(d)))
	const n = 4096
	block := make([]float64, n*d)
	for i := range block {
		block[i] = rng.Float64()
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	center := make([]float64, d)
	for i := range center {
		center[i] = 0.5
	}
	r2 := float64(d) / 12 * 0.9 // just under the mean squared distance to the centre
	dst, dist := make([]int, 0, n), make([]float64, 0, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sink {
			dist = dist[:0]
			dst = AppendWithinBlockDist(dst[:0], &dist, ids, block, d, center, r2, false)
		} else {
			dst = AppendWithinBlock(dst[:0], ids, block, d, center, r2, false)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}

func BenchmarkScan3D(b *testing.B)      { benchmarkScan(b, 3, false) }
func BenchmarkScanDist3D(b *testing.B)  { benchmarkScan(b, 3, true) }
func BenchmarkScan5D(b *testing.B)      { benchmarkScan(b, 5, false) }
func BenchmarkScanDist5D(b *testing.B)  { benchmarkScan(b, 5, true) }
func BenchmarkScan14D(b *testing.B)     { benchmarkScan(b, 14, false) }
func BenchmarkScanDist14D(b *testing.B) { benchmarkScan(b, 14, true) }

package geom

import (
	"math"
	"math/rand"
	"slices"
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
// float64 result is the same bit pattern, not merely close. The loop kernels
// sum each row the same way: at an infinite limit the gathered kernel hands
// back DistSq's bits for every row its list names, first and last row
// included, and the nearest-in-chain kernel elects the row with the smallest
// DistSq (the smaller id on a tie) whatever the chain's order.
func TestKernelBitIdenticalToDistSq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 16; d++ {
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
		const n = 40
		rows := make([]float64, 0, n*d)
		for k := 0; k < n; k++ {
			rows = append(rows, randVec(rng, d)...)
		}
		for trial := 0; trial < 50; trial++ {
			p := randVec(rng, d)
			order := rng.Perm(n)[:rng.Intn(n+1)] // trial 0: the empty list and chain
			if trial == 0 {
				order = order[:0]
			} else if trial%2 == 1 {
				order = append(order[:0], 0, n-1)
			}
			ids := make([]int32, len(order))
			best, bestID := math.Inf(1), -1
			for i, k := range order {
				ids[i] = int32(k)
				if d2 := DistSq(p, rows[k*d:(k+1)*d]); Nearer(d2, best, k, bestID, true) {
					best, bestID = d2, k
				}
			}
			got := AppendDistSqGathered([]float64{-1}, ids, rows, d, p, math.Inf(1))
			if len(got) != len(ids)+1 || got[0] != -1 {
				t.Fatalf("d=%d: gathered %d values for %d ids", d, len(got)-1, len(ids))
			}
			for i, k := range ids {
				if want := DistSq(p, rows[int(k)*d:int(k+1)*d]); got[i+1] != want {
					t.Fatalf("d=%d: gathered d² of row %d is %v, DistSq %v", d, k, got[i+1], want)
				}
			}
			chain, head := linked(n, order)
			if gotBest, gotID := NearestLinked(chain, head, rows, d, p, math.Inf(1), -1); gotID != bestID || gotBest != best {
				t.Fatalf("d=%d: chain elects %d at %v, DistSq %d at %v", d, gotID, gotBest, bestID, best)
			}
		}
	}
}

// linked files the rows order names into one newest-first chain over n rows,
// order[0] at its head.
func linked(n int, order []int) (chain []int32, head int32) {
	chain, head = make([]int32, n), -1
	for i := len(order) - 1; i >= 0; i-- {
		chain[order[i]], head = head, int32(order[i])
	}
	return chain, head
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

// A bounded sum may return early, but every comparison against the limit
// must come out as it does with the full kernel, and a value at or below the
// limit must be the full kernel's bits. Limits are drawn at random and set
// adversarially: the exact sum, its two float neighbours, and the partial
// sums at which the early exit looks. The loop kernels are held to the same
// sides through a three-row block holding q as its first and last row: the
// gathered kernel over both, and the linked ones over the chain 2 → 0, where
// the two rows tie and the strict search must elect row 0 — and over the
// empty list and chain, which find nothing.
func TestBoundedKernelAgreesOnTheLimitSide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for d := 1; d <= 16; d++ {
		kern := KernelFor(d)
		chain := []int32{-1, -1, 0}
		for trial := 0; trial < 300; trial++ {
			p, q := randVec(rng, d), randVec(rng, d)
			if trial%3 == 0 { // lattice coordinates: sums that hit a limit exactly
				for i := range p {
					p[i], q[i] = float64(rng.Intn(5))*0.5, float64(rng.Intn(5))*0.5
				}
			}
			rows := append(append(append([]float64{}, q...), randVec(rng, d)...), q...)
			exact := kern(p, q)
			limits := []float64{exact, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1)),
				rng.Float64() * 2 * exact, 0, math.Inf(1)}
			for cut := 4; cut < d; cut += 4 {
				part := kern(p[:cut], q[:cut])
				limits = append(limits, part, math.Nextafter(part, 0))
			}
			for _, limit := range limits {
				got := []float64{BoundedDistSq(p, q, limit)}
				got = AppendDistSqGathered(got, []int32{0, 2}, rows, d, p, limit)
				for _, g := range got {
					if (g < limit) != (exact < limit) || (g == limit) != (exact == limit) {
						t.Fatalf("d=%d limit=%v: bounded %v, exact %v fall on different sides", d, limit, g, exact)
					}
					if exact <= limit && g != exact {
						t.Fatalf("d=%d limit=%v: bounded %v is not the exact %v", d, limit, g, exact)
					}
				}
				if AnyLinked(chain, 2, rows, d, p, limit) != (exact < limit) {
					t.Fatalf("d=%d limit=%v: AnyLinked disagrees with exact %v", d, limit, exact)
				}
				for _, closed := range []bool{false, true} {
					want := []int{-1}
					if exact < limit || closed && exact == limit {
						want = append(want, 2, 0)
					}
					if hits := AppendWithinLinked([]int{-1}, chain, 2, rows, d, p, limit, closed); !slices.Equal(hits, want) {
						t.Fatalf("d=%d limit=%v closed=%v: within %v for exact %v", d, limit, closed, hits, exact)
					}
				}
				wantBest, wantID := limit, -1
				if exact < limit {
					wantBest, wantID = exact, 0
				}
				if best, id := NearestLinked(chain, 2, rows, d, p, limit, -1); best != wantBest || id != wantID {
					t.Fatalf("d=%d limit=%v: nearest %d at %v for exact %v", d, limit, id, best, exact)
				}
				if AnyLinked(chain, -1, rows, d, p, limit) || len(AppendWithinLinked(nil, chain, -1, rows, d, p, limit, true)) != 0 ||
					len(AppendDistSqGathered(nil, nil, rows, d, p, limit)) != 0 {
					t.Fatalf("d=%d: an empty chain or list found something", d)
				}
				if best, id := NearestLinked(chain, -1, rows, d, p, limit, -1); id != -1 || best != limit {
					t.Fatalf("d=%d: the empty chain elected %d", d, id)
				}
			}
		}
	}
}

// TestNearerTieRule: the four corners of the tie rule — strict and closed
// ball, a tie exactly at the radius and a tie inside it — plus the plain
// orderings, all through the one predicate the micro-cluster centre
// directory and its brute-force reference share.
func TestNearerTieRule(t *testing.T) {
	const r2 = 4.0
	for _, c := range []struct {
		name       string
		d2, best   float64
		id, bestID int
		strict     bool
		want       bool
	}{
		{"strict, at the radius, nothing found", r2, r2, 5, -1, true, false},
		{"closed, at the radius, nothing found", r2, r2, 5, -1, false, true},
		{"closed, at the radius, smaller id", r2, r2, 3, 5, false, true},
		{"closed, at the radius, larger id", r2, r2, 7, 5, false, false},
		{"strict, tie inside, smaller id", 1, 1, 3, 5, true, true},
		{"strict, tie inside, larger id", 1, 1, 7, 5, true, false},
		{"closed, tie inside, smaller id", 1, 1, 3, 5, false, true},
		{"closed, tie inside, larger id", 1, 1, 7, 5, false, false},
		{"nearer wins whatever the id", 0.5, 1, 9, 2, true, true},
		{"farther loses whatever the id", 2, 1, 1, 2, false, false},
		{"NaN distance never wins", math.NaN(), r2, 1, -1, false, false},
	} {
		if got := Nearer(c.d2, c.best, c.id, c.bestID, c.strict); got != c.want {
			t.Errorf("%s: Nearer=%v, want %v", c.name, got, c.want)
		}
	}
	// The rule is order-independent: every arrival order of the same hits
	// elects the same winner.
	hits := []struct {
		id int
		x  float64
	}{{4, 1}, {2, -1}, {9, 1}, {6, 2}, {1, -2}}
	rng := rand.New(rand.NewSource(7))
	for _, strict := range []bool{true, false} {
		for _, r := range []float64{1, 1.5, 2} {
			for trial := 0; trial < 20; trial++ {
				best, bestID := r*r, -1
				for _, i := range rng.Perm(len(hits)) {
					if d2 := hits[i].x * hits[i].x; Nearer(d2, best, hits[i].id, bestID, strict) {
						best, bestID = d2, hits[i].id
					}
				}
				if want := !(strict && r == 1); (bestID != -1) != want || (want && bestID != 2) {
					t.Fatalf("r=%g strict=%v: elected %d", r, strict, bestID)
				}
			}
		}
	}
	// The same hits as rows of a chain, in every order, through the unrolled
	// and the generic kernel: rows 2, 4 and 9 tie nearest at d² = 1, and the
	// chain walk elects row 2 whichever it meets first.
	for _, d := range []int{1, 3, 6} {
		rows := make([]float64, 10*d)
		for _, h := range hits {
			rows[h.id*d] = h.x
		}
		for trial := 0; trial < 50; trial++ {
			order := rng.Perm(len(hits))
			for i, j := range order {
				order[i] = hits[j].id
			}
			chain, head := linked(10, order)
			if best, id := NearestLinked(chain, head, rows, d, make([]float64, d), 1.5*1.5, -1); id != 2 || best != 1 {
				t.Fatalf("d=%d chain %v: elected %d at %v, want 2 at 1", d, order, id, best)
			}
		}
	}
}

// TestLoopKernelsZeroAllocs: the linked and gathered kernels allocate nothing
// beyond growing the caller's buffer, at every dimension switch case.
func TestLoopKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{1, 2, 3, 4, 5, 14} {
		const n = 64
		rows := make([]float64, 0, n*d)
		for k := 0; k < n; k++ {
			rows = append(rows, randVec(rng, d)...)
		}
		order := rng.Perm(n)
		chain, head := linked(n, order)
		ids := make([]int32, n)
		for i, k := range order {
			ids[i] = int32(k)
		}
		p, r2 := randVec(rng, d), 100*float64(d)
		hits, d2 := make([]int, 0, n), make([]float64, 0, n)
		found := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, id := NearestLinked(chain, head, rows, d, p, r2, -1); id >= 0 {
				found++
			}
			if AnyLinked(chain, head, rows, d, p, r2) {
				found++
			}
			hits = AppendWithinLinked(hits[:0], chain, head, rows, d, p, r2, true)
			d2 = AppendDistSqGathered(d2[:0], ids, rows, d, p, r2)
		})
		if allocs != 0 {
			t.Fatalf("d=%d: %.1f allocs per round of loop kernels, want 0", d, allocs)
		}
		if found == 0 || len(hits) == 0 || len(d2) != n {
			t.Fatalf("d=%d: the kernels found nothing (%d, %d hits, %d d²)", d, found, len(hits), len(d2))
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

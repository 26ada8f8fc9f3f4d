package geom

// This file holds the dimension-specialized squared-distance kernels and the
// contiguous-block scan that back every spatial index's hot path. The generic
// DistSq re-validates the dimensionality on every call and walks the slice
// one coordinate at a time; the kernels hoist that check to index-build time
// (an index knows its dimensionality once, at construction) and unroll the
// coordinate loop, while producing bit-identical results: every kernel
// accumulates the squared terms in the same left-to-right order as DistSq,
// so floating-point rounding is unchanged and any clustering built on the
// kernels is exactly the clustering built on DistSq.

// DistSqKernel computes the squared Euclidean distance between two
// coordinate vectors of a fixed, caller-guaranteed dimensionality. Unlike
// DistSq it performs no dimension check; callers obtain one via KernelFor at
// index-build time and reuse it for every query.
type DistSqKernel func(p, q []float64) float64

// KernelFor returns the squared-distance kernel specialized for dim:
// hand-unrolled bodies for d ≤ 4 and a 4-way-unrolled generic loop beyond.
// All kernels are bit-identical to DistSq on equal-dimension inputs.
func KernelFor(dim int) DistSqKernel {
	switch dim {
	case 1:
		return distSq1
	case 2:
		return distSq2
	case 3:
		return distSq3
	case 4:
		return distSq4
	default:
		return distSqGeneric
	}
}

//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSq1(p, q []float64) float64 {
	d0 := p[0] - q[0]
	return d0 * d0
}

//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSq2(p, q []float64) float64 {
	d0 := p[0] - q[0]
	d1 := p[1] - q[1]
	return d0*d0 + d1*d1
}

//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSq3(p, q []float64) float64 {
	d0 := p[0] - q[0]
	d1 := p[1] - q[1]
	d2 := p[2] - q[2]
	return d0*d0 + d1*d1 + d2*d2
}

//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSq4(p, q []float64) float64 {
	d0 := p[0] - q[0]
	d1 := p[1] - q[1]
	d2 := p[2] - q[2]
	d3 := p[3] - q[3]
	return d0*d0 + d1*d1 + d2*d2 + d3*d3
}

// distSqGeneric is the fallback for dim > 4: a 4-way-unrolled scan with a
// single accumulator updated in coordinate order, so the summation order —
// and therefore the rounding — matches the simple sequential loop exactly.
//
//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSqGeneric(p, q []float64) float64 {
	q = q[:len(p)] // hoist the bounds check out of the loop
	var s float64
	i := 0
	for ; i+4 <= len(p); i += 4 {
		d0 := p[i] - q[i]
		s += d0 * d0
		d1 := p[i+1] - q[i+1]
		s += d1 * d1
		d2 := p[i+2] - q[i+2]
		s += d2 * d2
		d3 := p[i+3] - q[i+3]
		s += d3 * d3
	}
	for ; i < len(p); i++ {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// BoundedKernel is a squared-distance kernel for threshold tests: it may stop
// accumulating once the running sum exceeds limit. The result is the exact
// DistSqKernel value whenever that value is at most limit, and otherwise some
// value above limit — the terms are non-negative, so float partial sums never
// decrease and a sum that has passed the limit stays past it. Every
// comparison of the result against limit (<, <=, ==, >=, >) therefore has
// the outcome it has with the full kernel; only the wasted additions go.
type BoundedKernel func(p, q []float64, limit float64) float64

// BoundedKernelFor returns the threshold kernel for dim. Up to d = 4 the
// unrolled kernels are shorter than a test inside them would be and the
// limit is ignored; beyond, the generic loop checks it once per four
// coordinates.
func BoundedKernelFor(dim int) BoundedKernel {
	switch dim {
	case 1:
		return func(p, q []float64, _ float64) float64 { return distSq1(p, q) }
	case 2:
		return func(p, q []float64, _ float64) float64 { return distSq2(p, q) }
	case 3:
		return func(p, q []float64, _ float64) float64 { return distSq3(p, q) }
	case 4:
		return func(p, q []float64, _ float64) float64 { return distSq4(p, q) }
	default:
		return distSqBounded
	}
}

// distSqBounded is distSqGeneric with the early exit: same single
// accumulator, same coordinate order, so a sum it finishes is the same bits.
//
//mulint:noalloc pure arithmetic; runs under every *Into AllocsPerRun gate
func distSqBounded(p, q []float64, limit float64) float64 {
	q = q[:len(p)] // hoist the bounds check out of the loop
	var s float64
	i := 0
	for ; i+4 <= len(p); i += 4 {
		d0 := p[i] - q[i]
		s += d0 * d0
		d1 := p[i+1] - q[i+1]
		s += d1 * d1
		d2 := p[i+2] - q[i+2]
		s += d2 * d2
		d3 := p[i+3] - q[i+3]
		s += d3 * d3
		if s > limit {
			return s
		}
	}
	for ; i < len(p); i++ {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// AppendWithinBlock scans a row-major n×dim coordinate block and appends
// ids[k] to dst for every row k whose squared distance to center is strictly
// below r2, or equal to r2 when closed. Rows are visited in order, so the
// append order matches a sequential per-point scan of the same block. This is
// the leaf-scan primitive of the spatial indexes: one call per leaf, no
// per-candidate callback, no allocation beyond dst growth.
//
//mulint:noalloc static twin of the rtree/kdtree TestSphereIntoZeroAllocs AllocsPerRun gates, which drive every leaf scan through here
func AppendWithinBlock(dst []int, ids []int, block []float64, dim int, center []float64, r2 float64, closed bool) []int {
	return AppendWithinBlockDist(dst, nil, ids, block, dim, center, r2, closed)
}

// AppendWithinBlockDist is the leaf-scan body, and AppendWithinBlock with a
// second output: when dist is non-nil, the squared distance of every id
// appended to dst is appended to *dist, so a caller that goes on to test its
// hits against a second radius (the ε/2 inner circle) has no distance left to
// compute. The sink is one pointer, read only on a hit: the id-only scan
// keeps one more word live than it would without it and pays a predicted
// branch per hit, nothing per row. (Passing the slice and a flag by value
// cost the d = 3 scan 5–17 % in spilled loop counters.)
//
//mulint:noalloc static twin of the rtree/kdtree TestSphereIntoZeroAllocs and rtree TestSphereDistIntoZeroAllocs AllocsPerRun gates, which drive every leaf scan through here
func AppendWithinBlockDist(dst []int, dist *[]float64, ids []int, block []float64, dim int, center []float64, r2 float64, closed bool) []int {
	switch dim {
	case 1:
		c0 := center[0]
		for k, o := 0, 0; o < len(block); k, o = k+1, o+1 {
			d0 := block[o] - c0
			d2 := d0 * d0
			if d2 < r2 || (closed && d2 == r2) {
				dst = append(dst, ids[k])
				if dist != nil {
					*dist = append(*dist, d2)
				}
			}
		}
	case 2:
		c0, c1 := center[0], center[1]
		for k, o := 0, 0; o+2 <= len(block); k, o = k+1, o+2 {
			d0 := block[o] - c0
			d1 := block[o+1] - c1
			d2 := d0*d0 + d1*d1
			if d2 < r2 || (closed && d2 == r2) {
				dst = append(dst, ids[k])
				if dist != nil {
					*dist = append(*dist, d2)
				}
			}
		}
	case 3:
		c0, c1, c2 := center[0], center[1], center[2]
		for k, o := 0, 0; o+3 <= len(block); k, o = k+1, o+3 {
			d0 := block[o] - c0
			d1 := block[o+1] - c1
			dd2 := block[o+2] - c2
			d2 := d0*d0 + d1*d1 + dd2*dd2
			if d2 < r2 || (closed && d2 == r2) {
				dst = append(dst, ids[k])
				if dist != nil {
					*dist = append(*dist, d2)
				}
			}
		}
	case 4:
		c0, c1, c2, c3 := center[0], center[1], center[2], center[3]
		for k, o := 0, 0; o+4 <= len(block); k, o = k+1, o+4 {
			d0 := block[o] - c0
			d1 := block[o+1] - c1
			dd2 := block[o+2] - c2
			d3 := block[o+3] - c3
			d2 := d0*d0 + d1*d1 + dd2*dd2 + d3*d3
			if d2 < r2 || (closed && d2 == r2) {
				dst = append(dst, ids[k])
				if dist != nil {
					*dist = append(*dist, d2)
				}
			}
		}
	default:
		// Inlined distSqBounded: per-row subslicing and the call itself cost
		// more than the scan at moderate dimensionality. Same single-accumulator
		// coordinate order, so the rounding still matches DistSq bit for bit.
		// The partial sums never decrease, so a row whose sum has passed r2
		// after some four coordinates is out whatever the rest add; a hit
		// always runs to the end, so dist receives the full sum.
		center = center[:dim]
	rows:
		for k, o := 0, 0; o+dim <= len(block); k, o = k+1, o+dim {
			row := block[o : o+dim : o+dim]
			var s float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := row[j] - center[j]
				s += d0 * d0
				d1 := row[j+1] - center[j+1]
				s += d1 * d1
				dd2 := row[j+2] - center[j+2]
				s += dd2 * dd2
				d3 := row[j+3] - center[j+3]
				s += d3 * d3
				if s > r2 {
					continue rows
				}
			}
			for ; j < dim; j++ {
				d := row[j] - center[j]
				s += d * d
			}
			if s < r2 || (closed && s == r2) {
				dst = append(dst, ids[k])
				if dist != nil {
					*dist = append(*dist, s)
				}
			}
		}
	}
	return dst
}

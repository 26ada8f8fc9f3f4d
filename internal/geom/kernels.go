package geom

// This file holds the dimension-specialized squared-distance kernels and the
// loop kernels (block, gathered, linked) that back every hot path. The generic
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

// BoundedDistSq is the squared distance between p and q for a threshold
// test against limit, for one pair: it may stop summing once the running sum
// exceeds limit. The result is the exact DistSq value whenever that value is
// at most limit, and otherwise some value above limit — the terms are
// non-negative, so float partial sums never decrease and a sum that has
// passed the limit stays past it. Every comparison of the result against
// limit (<, <=, ==, >=, >) therefore has the outcome it has with the full
// sum; only the wasted additions go. Up to d = 4 the unrolled bodies are
// shorter than a test inside them would be and the limit is ignored; beyond,
// the sum checks it once per four coordinates. The loop kernels below make
// the same promise for each row they test.
//
//mulint:noalloc pure arithmetic; the pair test of step 4 (internal/core mergeWndqCore)
func BoundedDistSq(p, q []float64, limit float64) float64 {
	switch len(p) {
	case 1:
		return distSq1(p, q)
	case 2:
		return distSq2(p, q)
	case 3:
		return distSq3(p, q)
	case 4:
		return distSq4(p, q)
	default:
		return distSqBounded(p, q, limit)
	}
}

// distSqBounded is distSqGeneric with the early exit: same single
// accumulator, same coordinate order, so a sum it finishes is the same bits.
// The loop kernels' d > 4 cases are this body written into their loops.
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

// Nearer is the tie rule of a nearest search, written once: it reports
// whether a candidate id at squared distance d2 displaces the running best.
// best starts at r² with bestID −1 (nothing found yet). A smaller distance
// always wins; an equal one wins on the smaller id once something has been
// found, and before that only when the ball is closed (d2 == r² is then on
// the boundary, which a strict search excludes). The outcome depends on the
// set of candidates alone, not on the order they are offered in, so any two
// structures that enumerate supersets of the ball elect the same winner: the
// micro-cluster centre grid (NearestLinked over its chains) and the
// brute-force scan its tests hold it to.
func Nearer(d2, best float64, id, bestID int, strict bool) bool {
	if d2 != best {
		return d2 < best
	}
	if bestID != -1 {
		return id < bestID
	}
	return !strict
}

// The linked-rows kernels walk one newest-first chain over a row-major
// n×dim block: row head first, then chain[head], chain[chain[head]], … until
// −1. This is how the micro-cluster centre grid (internal/mc) files the
// centres of one cell: a probe makes one call per cell of its box, and every
// centre test of the chain runs inside the kernel, with the dimension switch
// outside the loop and DistSq's summation order inside. Above d = 4 a row is
// summed bounded (BoundedDistSq's contract, distSqBounded's body written into
// the loop) at the probe's radius, or at the running best for NearestLinked.

// NearestLinked offers every row of the chain from head to the strict
// nearest search whose running best is (best, bestID) and returns the new
// best: a row k displaces it when Nearer(d², best, k, bestID, true).
//
//mulint:noalloc static twin of TestLoopKernelsZeroAllocs (kernels_test.go) and TestDirectoryProbesZeroAllocs (internal/mc)
func NearestLinked(chain []int32, head int32, rows []float64, dim int, p []float64, best float64, bestID int) (float64, int) {
	switch dim {
	case 1:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq1(p, rows[k:]); Nearer(d2, best, int(k), bestID, true) {
				best, bestID = d2, int(k)
			}
		}
	case 2:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq2(p, rows[2*int(k):]); Nearer(d2, best, int(k), bestID, true) {
				best, bestID = d2, int(k)
			}
		}
	case 3:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq3(p, rows[3*int(k):]); Nearer(d2, best, int(k), bestID, true) {
				best, bestID = d2, int(k)
			}
		}
	case 4:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq4(p, rows[4*int(k):]); Nearer(d2, best, int(k), bestID, true) {
				best, bestID = d2, int(k)
			}
		}
	default:
		p = p[:dim]
	next:
		for k := head; k >= 0; k = chain[k] {
			row := rows[dim*int(k):][:dim]
			var s float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := row[j] - p[j]
				s += d0 * d0
				d1 := row[j+1] - p[j+1]
				s += d1 * d1
				d2 := row[j+2] - p[j+2]
				s += d2 * d2
				d3 := row[j+3] - p[j+3]
				s += d3 * d3
				if s > best {
					continue next
				}
			}
			for ; j < dim; j++ {
				d := row[j] - p[j]
				s += d * d
			}
			if Nearer(s, best, int(k), bestID, true) {
				best, bestID = s, int(k)
			}
		}
	}
	return best, bestID
}

// AnyLinked reports whether some row of the chain from head lies strictly
// within r2 (squared) of p. It stops at the first such row.
//
//mulint:noalloc static twin of TestLoopKernelsZeroAllocs (kernels_test.go) and TestDirectoryProbesZeroAllocs (internal/mc)
func AnyLinked(chain []int32, head int32, rows []float64, dim int, p []float64, r2 float64) bool {
	switch dim {
	case 1:
		for k := head; k >= 0; k = chain[k] {
			if distSq1(p, rows[k:]) < r2 {
				return true
			}
		}
	case 2:
		for k := head; k >= 0; k = chain[k] {
			if distSq2(p, rows[2*int(k):]) < r2 {
				return true
			}
		}
	case 3:
		for k := head; k >= 0; k = chain[k] {
			if distSq3(p, rows[3*int(k):]) < r2 {
				return true
			}
		}
	case 4:
		for k := head; k >= 0; k = chain[k] {
			if distSq4(p, rows[4*int(k):]) < r2 {
				return true
			}
		}
	default:
		p = p[:dim]
	next:
		for k := head; k >= 0; k = chain[k] {
			row := rows[dim*int(k):][:dim]
			var s float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := row[j] - p[j]
				s += d0 * d0
				d1 := row[j+1] - p[j+1]
				s += d1 * d1
				d2 := row[j+2] - p[j+2]
				s += d2 * d2
				d3 := row[j+3] - p[j+3]
				s += d3 * d3
				if s > r2 {
					continue next
				}
			}
			for ; j < dim; j++ {
				d := row[j] - p[j]
				s += d * d
			}
			if s < r2 {
				return true
			}
		}
	}
	return false
}

// AppendWithinLinked appends to dst every row k of the chain from head whose
// squared distance to p is strictly below r2, or equal to r2 when closed, in
// chain order.
//
//mulint:noalloc static twin of TestLoopKernelsZeroAllocs (kernels_test.go) and TestDirectoryProbesZeroAllocs (internal/mc)
func AppendWithinLinked(dst []int, chain []int32, head int32, rows []float64, dim int, p []float64, r2 float64, closed bool) []int {
	switch dim {
	case 1:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq1(p, rows[k:]); d2 < r2 || closed && d2 == r2 {
				dst = append(dst, int(k))
			}
		}
	case 2:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq2(p, rows[2*int(k):]); d2 < r2 || closed && d2 == r2 {
				dst = append(dst, int(k))
			}
		}
	case 3:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq3(p, rows[3*int(k):]); d2 < r2 || closed && d2 == r2 {
				dst = append(dst, int(k))
			}
		}
	case 4:
		for k := head; k >= 0; k = chain[k] {
			if d2 := distSq4(p, rows[4*int(k):]); d2 < r2 || closed && d2 == r2 {
				dst = append(dst, int(k))
			}
		}
	default:
		p = p[:dim]
	next:
		for k := head; k >= 0; k = chain[k] {
			row := rows[dim*int(k):][:dim]
			var s float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := row[j] - p[j]
				s += d0 * d0
				d1 := row[j+1] - p[j+1]
				s += d1 * d1
				d2 := row[j+2] - p[j+2]
				s += d2 * d2
				d3 := row[j+3] - p[j+3]
				s += d3 * d3
				if s > r2 {
					continue next
				}
			}
			for ; j < dim; j++ {
				d := row[j] - p[j]
				s += d * d
			}
			if s < r2 || closed && s == r2 {
				dst = append(dst, int(k))
			}
		}
	}
	return dst
}

// AppendDistSqGathered is the gathered-rows kernel: it appends to dst, in
// list order, the squared distance from p to every row of the row-major
// n×dim block that ids names, summed bounded at limit (BoundedDistSq's
// contract; +Inf for the exact sums). A caller that tests a list of
// candidates against one point — a reachable list's centres, one
// micro-cluster's members — makes one call for the whole list.
//
//mulint:noalloc static twin of TestLoopKernelsZeroAllocs (kernels_test.go), TestProcessPointZeroAllocs and TestEpsNeighborhoodDistIntoZeroAllocs
func AppendDistSqGathered(dst []float64, ids []int32, rows []float64, dim int, p []float64, limit float64) []float64 {
	switch dim {
	case 1:
		for _, k := range ids {
			dst = append(dst, distSq1(p, rows[k:]))
		}
	case 2:
		for _, k := range ids {
			dst = append(dst, distSq2(p, rows[2*int(k):]))
		}
	case 3:
		for _, k := range ids {
			dst = append(dst, distSq3(p, rows[3*int(k):]))
		}
	case 4:
		for _, k := range ids {
			dst = append(dst, distSq4(p, rows[4*int(k):]))
		}
	default:
		p = p[:dim]
	next:
		for _, k := range ids {
			row := rows[dim*int(k):][:dim]
			var s float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := row[j] - p[j]
				s += d0 * d0
				d1 := row[j+1] - p[j+1]
				s += d1 * d1
				d2 := row[j+2] - p[j+2]
				s += d2 * d2
				d3 := row[j+3] - p[j+3]
				s += d3 * d3
				if s > limit {
					dst = append(dst, s)
					continue next
				}
			}
			for ; j < dim; j++ {
				d := row[j] - p[j]
				s += d * d
			}
			dst = append(dst, s)
		}
	}
	return dst
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

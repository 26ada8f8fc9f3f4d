// Package geom provides the d-dimensional geometric primitives that every
// other package in this repository builds on: points, distances, minimum
// bounding rectangles (MBRs) and ε-region tests.
//
// All coordinates are float64. A Point is a plain []float64 so that callers
// can hand over data without copying; functions in this package never retain
// or mutate their arguments unless documented otherwise.
//
// The loops of the index build and of clustering sum their distances here
// (kernels.go), in loop kernels over candidate rows of a row-major block,
// each with the dimension switch outside its loop and DistSq's summation
// order inside, in three shapes:
//
//   - block: consecutive rows, the leaf scan of the spatial indexes
//     (AppendWithinBlock, AppendWithinBlockDist);
//   - gathered: the rows an []int32 list names, such as a reachable list's
//     micro-cluster centres (AppendDistSqGathered);
//   - linked: one newest-first chain of rows, a cell of the micro-cluster
//     centre grid (NearestLinked, AnyLinked, AppendWithinLinked).
//
// KernelFor's func-valued kernels, which Go cannot inline, and
// BoundedDistSq are left for single-pair cold paths.
package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a d-dimensional coordinate vector.
type Point []float64

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats p like "(x1, x2, ...)" with compact precision.
func (p Point) String() string {
	var b strings.Builder
	b.Grow(2 + 8*len(p))
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// DistSq returns the squared Euclidean distance between p and q.
// It panics if the dimensionalities differ.
func DistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(DistSq(p, q)) }

// Within reports whether dist(p, q) < r, computed without a square root.
// This is the strict comparison used by the DBSCAN ε-neighborhood definition.
func Within(p, q Point, r float64) bool { return DistSq(p, q) < r*r }

package geom

import (
	"fmt"
	"slices"
)

// PointSet is a contiguous column of n d-dimensional points: one backing
// []float64 holding the coordinates row-major (point i occupies
// data[i*d : (i+1)*d]). Row views are cheap slices into the backing array, so
// scans over consecutive points walk memory linearly instead of chasing one
// pointer per point the way a []Point does. Points are identified by their
// stable row index, assigned in append order.
//
// A PointSet is not safe for concurrent mutation; concurrent reads are fine
// once construction is done.
type PointSet struct {
	dim  int
	data []float64
}

// NewPointSet returns an empty PointSet for dim-dimensional points with
// capacity pre-sized for capPoints points (0 for no preallocation).
func NewPointSet(dim, capPoints int) *PointSet {
	if dim <= 0 {
		panic("geom: PointSet dimension must be positive")
	}
	var data []float64
	if capPoints > 0 {
		data = make([]float64, 0, capPoints*dim)
	}
	return &PointSet{dim: dim, data: data}
}

// AdoptPointSet returns a set over data, a row-major block of
// len(data)/dim points, without copying it: the set reads the caller's
// coordinates in place. The block's capacity is capped at its length, so an
// Append to the set reallocates instead of writing past the caller's rows.
// It panics if dim is not positive or len(data) is not a multiple of dim.
func AdoptPointSet(dim int, data []float64) *PointSet {
	if dim <= 0 {
		panic("geom: PointSet dimension must be positive")
	}
	if len(data)%dim != 0 {
		panic(fmt.Sprintf("geom: block of %d coordinates is not a whole number of %d-dim rows", len(data), dim))
	}
	return &PointSet{dim: dim, data: data[:len(data):len(data)]}
}

// PointSetFromPoints copies pts into a fresh contiguous PointSet. Every point
// must have dimensionality dim.
func PointSetFromPoints(dim int, pts []Point) *PointSet {
	s := NewPointSet(dim, len(pts))
	for _, p := range pts {
		s.Append(p)
	}
	return s
}

// Dim returns the dimensionality of the stored points.
func (s *PointSet) Dim() int { return s.dim }

// Len returns the number of stored points.
func (s *PointSet) Len() int { return len(s.data) / s.dim }

// Append copies p into the set and returns its row index.
// It panics if the dimensionality differs.
func (s *PointSet) Append(p Point) int {
	if len(p) != s.dim {
		panic(fmt.Sprintf("geom: appending %d-dim point to %d-dim PointSet", len(p), s.dim))
	}
	s.data = append(s.data, p...)
	return len(s.data)/s.dim - 1
}

// Grow makes room for n more points, so that appending them does not
// reallocate (and does not leave the backing array a growth step too large).
func (s *PointSet) Grow(n int) { s.data = slices.Grow(s.data, n*s.dim) }

// AppendRow copies a raw dim-length coordinate row and returns its index.
func (s *PointSet) AppendRow(row []float64) int {
	return s.Append(Point(row))
}

// Row returns the coordinate view of point i. The view aliases the backing
// array (capacity-capped so appends cannot clobber the next row); it stays
// readable after further Appends but may then alias a stale backing array,
// so hold row views only across a frozen set.
func (s *PointSet) Row(i int) []float64 {
	o := i * s.dim
	return s.data[o : o+s.dim : o+s.dim]
}

// Point returns point i as a geom.Point view (see Row for aliasing rules).
func (s *PointSet) Point(i int) Point { return Point(s.Row(i)) }

// Points returns one view per row, in row order (see Row for aliasing
// rules): the []Point form of the set, without copying coordinates. It is
// nil for an empty set.
func (s *PointSet) Points() []Point {
	if s.Len() == 0 {
		return nil
	}
	pts := make([]Point, s.Len())
	for i := range pts {
		pts[i] = s.Point(i)
	}
	return pts
}

// Coord returns coordinate axis of point i without materializing a row view.
func (s *PointSet) Coord(i, axis int) float64 { return s.data[i*s.dim+axis] }

// Block returns the contiguous coordinate block of rows [lo, hi).
func (s *PointSet) Block(lo, hi int) []float64 {
	return s.data[lo*s.dim : hi*s.dim : hi*s.dim]
}

// Data returns the whole backing array (length Len()*Dim()).
func (s *PointSet) Data() []float64 { return s.data }

// Swap exchanges rows i and j in place.
func (s *PointSet) Swap(i, j int) {
	if i == j {
		return
	}
	a, b := s.Row(i), s.Row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// Truncate drops every point from row n on, keeping the backing capacity so
// the set can be refilled without reallocating.
func (s *PointSet) Truncate(n int) { s.data = s.data[:n*s.dim] }

// MBR returns the tightest bounding rectangle of all stored points.
// It panics when the set is empty.
func (s *PointSet) MBR() MBR { return MBRFromBlock(s.data, s.dim) }

// MBRFromBlock returns the tightest MBR over a row-major n×dim coordinate
// block. It panics when the block is empty.
func MBRFromBlock(block []float64, dim int) MBR {
	if len(block) < dim {
		panic("geom: MBRFromBlock on empty block")
	}
	m := MBR{Min: make(Point, dim), Max: make(Point, dim)}
	copy(m.Min, block[:dim])
	copy(m.Max, block[:dim])
	for o := dim; o+dim <= len(block); o += dim {
		for k := 0; k < dim; k++ {
			v := block[o+k]
			if v < m.Min[k] {
				m.Min[k] = v
			}
			if v > m.Max[k] {
				m.Max[k] = v
			}
		}
	}
	return m
}

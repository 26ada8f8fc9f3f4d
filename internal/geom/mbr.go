package geom

import (
	"fmt"
	"math"
)

// MBR is an axis-aligned minimum bounding (hyper-)rectangle, closed on all
// sides: a point x is contained iff Min[i] <= x[i] <= Max[i] for every axis.
type MBR struct {
	Min, Max Point
}

// NewMBR returns an "empty" MBR of dimension d: Min at +Inf and Max at -Inf on
// every axis, so that extending it by any point yields that point's MBR.
func NewMBR(d int) MBR {
	m := MBR{Min: make(Point, d), Max: make(Point, d)}
	for i := 0; i < d; i++ {
		m.Min[i] = math.Inf(1)
		m.Max[i] = math.Inf(-1)
	}
	return m
}

// MBRFromPoint returns the degenerate MBR covering exactly p.
func MBRFromPoint(p Point) MBR {
	return MBR{Min: p.Clone(), Max: p.Clone()}
}

// MBRFromPoints returns the tightest MBR covering all pts.
// It panics if pts is empty.
func MBRFromPoints(pts []Point) MBR {
	if len(pts) == 0 {
		panic("geom: MBRFromPoints on empty slice")
	}
	m := MBRFromPoint(pts[0])
	for _, p := range pts[1:] {
		m.ExtendPoint(p)
	}
	return m
}

// Dim returns the dimensionality of m.
func (m MBR) Dim() int { return len(m.Min) }

// IsEmpty reports whether m is the empty rectangle produced by NewMBR.
func (m MBR) IsEmpty() bool {
	return m.Dim() == 0 || m.Min[0] > m.Max[0]
}

// Clone returns a deep copy of m.
func (m MBR) Clone() MBR {
	return MBR{Min: m.Min.Clone(), Max: m.Max.Clone()}
}

// ExtendPoint grows m in place so that it covers p.
func (m *MBR) ExtendPoint(p Point) {
	for i := range p {
		if p[i] < m.Min[i] {
			m.Min[i] = p[i]
		}
		if p[i] > m.Max[i] {
			m.Max[i] = p[i]
		}
	}
}

// Extend grows m in place so that it covers o.
func (m *MBR) Extend(o MBR) {
	for i := range m.Min {
		if o.Min[i] < m.Min[i] {
			m.Min[i] = o.Min[i]
		}
		if o.Max[i] > m.Max[i] {
			m.Max[i] = o.Max[i]
		}
	}
}

// Contains reports whether p lies inside m (closed bounds).
func (m MBR) Contains(p Point) bool {
	for i := range p {
		if p[i] < m.Min[i] || p[i] > m.Max[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether m and o share at least one point (closed bounds).
func (m MBR) Overlaps(o MBR) bool {
	for i := range m.Min {
		if m.Min[i] > o.Max[i] || o.Min[i] > m.Max[i] {
			return false
		}
	}
	return true
}

// Expanded returns a copy of m grown by r on every side. This is the
// "ε-extended MBR" of the paper (reg_ε when applied to a point MBR).
func (m MBR) Expanded(r float64) MBR {
	e := m.Clone()
	for i := range e.Min {
		e.Min[i] -= r
		e.Max[i] += r
	}
	return e
}

// Region returns the ε-extended MBR of a single point: the axis-aligned cube
// of half-width r centered at p (the paper's reg_r(p)).
func Region(p Point, r float64) MBR {
	m := MBRFromPoint(p)
	return m.Expanded(r)
}

// OverlapsRegion reports whether m overlaps the axis-aligned cube of
// half-width r centered at p — exactly Overlaps(Region(p, r)), but without
// materializing the region rectangle. This sits on the per-micro-cluster
// filter of every ε-neighborhood query, where Region's two allocations per
// query would dominate an otherwise allocation-free hot path.
func (m MBR) OverlapsRegion(p Point, r float64) bool {
	for i := range m.Min {
		if m.Min[i] > p[i]+r || p[i]-r > m.Max[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of m (0 for empty MBRs).
func (m MBR) Area() float64 {
	if m.IsEmpty() {
		return 0
	}
	a := 1.0
	for i := range m.Min {
		a *= m.Max[i] - m.Min[i]
	}
	return a
}

// EnlargementArea returns the area growth of m if extended to cover o.
func (m MBR) EnlargementArea(o MBR) float64 {
	e := m.Clone()
	e.Extend(o)
	return e.Area() - m.Area()
}

// Center returns the center point of m.
func (m MBR) Center() Point {
	c := make(Point, m.Dim())
	for i := range c {
		c[i] = (m.Min[i] + m.Max[i]) / 2
	}
	return c
}

// MinDistSq returns the squared minimum distance from p to any point of m
// (0 when p is inside m). Used to prune sphere queries against subtrees.
func (m MBR) MinDistSq(p Point) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < m.Min[i]:
			d := m.Min[i] - p[i]
			s += d * d
		case p[i] > m.Max[i]:
			d := p[i] - m.Max[i]
			s += d * d
		}
	}
	return s
}

// String formats m as "[min ; max]".
func (m MBR) String() string {
	return fmt.Sprintf("[%v ; %v]", m.Min, m.Max)
}

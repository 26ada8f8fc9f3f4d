package dbscan

import (
	"encoding/binary"
	"math"

	"mudbscan/internal/geom"
)

// Grid is a uniform hyper-grid over a point set: each point is hashed to the
// cell of side-length Side containing it. It underlies the GridDBSCAN
// baseline here and the grid-based distributed baselines.
type Grid struct {
	Side float64
	Dim  int
	// Keys holds the packed cell coordinate key of every non-empty cell, in
	// first-touch order; a cell is named by its index here.
	Keys []string
	// Members[c] holds the ids of the points inside cell c.
	Members [][]int32
	// Cell[i] is the cell of point i.
	Cell  []int32
	index map[string]int32
}

// BuildGrid hashes pts into cells of the given side length.
func BuildGrid(pts []geom.Point, side float64) *Grid {
	if side <= 0 {
		panic("dbscan: grid side must be positive")
	}
	if len(pts) == 0 {
		panic("dbscan: grid over empty dataset")
	}
	g := &Grid{
		Side:  side,
		Dim:   len(pts[0]),
		Cell:  make([]int32, len(pts)),
		index: make(map[string]int32),
	}
	for i, p := range pts {
		k := g.key(g.coordsOf(p))
		c, ok := g.index[k]
		if !ok {
			c = int32(len(g.Keys))
			g.index[k] = c
			g.Keys = append(g.Keys, k)
			g.Members = append(g.Members, nil)
		}
		g.Members[c] = append(g.Members[c], int32(i))
		g.Cell[i] = c
	}
	return g
}

// coordsOf returns the integer cell coordinates of p.
func (g *Grid) coordsOf(p geom.Point) []int32 {
	c := make([]int32, g.Dim)
	for i, v := range p {
		c[i] = int32(math.Floor(v / g.Side))
	}
	return c
}

// key packs cell coordinates into a map key.
func (g *Grid) key(coords []int32) string {
	b := make([]byte, 4*len(coords))
	for i, c := range coords {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(c))
	}
	return string(b)
}

// Unkey unpacks a map key back into cell coordinates.
func (g *Grid) Unkey(key string) []int32 {
	coords := make([]int32, g.Dim)
	for i := range coords {
		coords[i] = int32(binary.LittleEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return coords
}

// NumCells returns the number of non-empty cells.
func (g *Grid) NumCells() int { return len(g.Keys) }

// NeighborEnumCount returns the number of cell lookups a Chebyshev-radius
// query in dim dimensions enumerates: (2r+1)^dim, saturating at
// math.MaxInt.
func NeighborEnumCount(radius, dim int) int {
	count := 1
	width := 2*radius + 1
	for i := 0; i < dim; i++ {
		if count > math.MaxInt/width {
			return math.MaxInt
		}
		count *= width
	}
	return count
}

// VisitNeighborCells invokes fn with the members of every non-empty cell
// within Chebyshev distance radius of cell c (including c itself), by
// enumerating the (2r+1)^d offsets. Only call when NeighborEnumCount is
// affordable.
func (g *Grid) VisitNeighborCells(c int32, radius int, fn func(members []int32)) {
	coords := g.Unkey(g.Keys[c])
	cur := make([]int32, g.Dim)
	for i := range cur {
		cur[i] = coords[i] - int32(radius)
	}
	for {
		if m, ok := g.index[g.key(cur)]; ok {
			fn(g.Members[m])
		}
		// Odometer increment.
		i := 0
		for ; i < g.Dim; i++ {
			cur[i]++
			if cur[i] <= coords[i]+int32(radius) {
				break
			}
			cur[i] = coords[i] - int32(radius)
		}
		if i == g.Dim {
			return
		}
	}
}

// ChebyshevWithin reports whether two unpacked cell coordinates are within
// the given Chebyshev distance.
func ChebyshevWithin(a, b []int32, radius int32) bool {
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > radius {
			return false
		}
	}
	return true
}

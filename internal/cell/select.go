package cell

import (
	"sort"

	"mudbscan/internal/geom"
)

// maxProfileSample bounds the sample pass of the auto-selector: a stride
// sample of ≤1024 points is hashed to cells, so profiling costs O(sample)
// regardless of n.
const maxProfileSample = 1024

// Profile summarizes the cheap dataset statistics the engine auto-selector
// inspects: dimensionality, size, and the cell-occupancy distribution of a
// bounded deterministic sample under this engine's own ε/√d grid.
type Profile struct {
	// N and Dim are the dataset size and dimensionality; MinPts is the run's
	// density threshold.
	N, Dim, MinPts int
	// SampleSize is the number of points profiled (≤ maxProfileSample,
	// stride-sampled so the sample spans the input order deterministically).
	SampleSize int
	// SampleCells is the number of distinct non-empty cells the sample
	// occupies; MaxOccupancy is the largest single-cell sample count — the
	// occupancy-skew signal (hot cells make the same-cell shortcut carry the
	// run even at moderate dimensionality).
	SampleCells  int
	MaxOccupancy int
}

// MeanOccupancy returns the average sampled points per occupied cell.
func (p Profile) MeanOccupancy() float64 {
	if p.SampleCells == 0 {
		return 0
	}
	return float64(p.SampleSize) / float64(p.SampleCells)
}

// Sample profiles pts for the auto-selector. It is deterministic: the
// stride sample and the sorted-run cell counting involve no map iteration
// and no randomness. pts must be rectangular with finite coordinates (the
// mudbscan entry points validate; an empty input yields a zero Profile).
func Sample[P ~[]float64](pts []P, eps float64, minPts int) Profile {
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0])
	}
	return sample(len(pts), dim, func(i int) []float64 { return pts[i] }, eps, minPts)
}

// Prefer reports whether the auto-selector runs this engine on set: the
// sample profile favors the grid (Decide) and the grid can index every
// coordinate (Representable). The sample is drawn only where Decide reads
// it, at 4 ≤ d ≤ 7; elsewhere the dimensionality alone gives Decide's answer.
func Prefer(set *geom.PointSet, eps float64, minPts int) bool {
	pick, settled := byDim(set.Len(), set.Dim())
	if !settled {
		pick = Decide(sample(set.Len(), set.Dim(), set.Row, eps, minPts))
	}
	return pick && Representable(set, eps)
}

// sample profiles the n dim-dimensional rows row returns.
func sample(n, dim int, row func(int) []float64, eps float64, minPts int) Profile {
	p := Profile{N: n, MinPts: minPts}
	if n == 0 || dim == 0 {
		return p
	}
	p.Dim = dim
	side := cellSide(eps, p.Dim)

	k := min(n, maxProfileSample)
	stride := n / k
	sc := make([]int64, 0, k*p.Dim)
	for i := 0; i < k; i++ {
		for _, v := range row(i * stride) {
			sc = append(sc, cellCoord(v, side))
		}
	}
	p.SampleSize = k

	// Count distinct cells and the hottest one by sorting the sample keys
	// and walking the runs.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca := sc[idx[a]*dim : idx[a]*dim+dim]
		cb := sc[idx[b]*dim : idx[b]*dim+dim]
		for j := 0; j < dim; j++ {
			if ca[j] != cb[j] {
				return ca[j] < cb[j]
			}
		}
		return false
	})
	run := 0
	for i := 0; i < k; i++ {
		if i == 0 || !sameCoords(sc, idx[i-1], idx[i], dim) {
			p.SampleCells++
			run = 0
		}
		run++
		if run > p.MaxOccupancy {
			p.MaxOccupancy = run
		}
	}
	return p
}

func sameCoords(sc []int64, a, b, dim int) bool {
	for j := 0; j < dim; j++ {
		if sc[a*dim+j] != sc[b*dim+j] {
			return false
		}
	}
	return true
}

// Decide reports whether the cell engine should be preferred over the
// μR-tree engine for data with this profile. The rule follows the
// head-to-head measurements (EXPERIMENTS.md §Engines): the grid wins
// outright at low dimensionality, its (2r+1)^d neighbor-cell enumeration
// loses past d≈7, and in between it pays off only when cells are populated
// enough for the same-cell shortcut to carry the run.
func Decide(p Profile) bool {
	if pick, settled := byDim(p.N, p.Dim); settled {
		return pick
	}
	return p.MeanOccupancy() >= float64(p.MinPts)
}

// byDim is Decide's answer where size and dimensionality alone settle it:
// never the grid for empty data, always at d ≤ 3, never past d = 7. In
// between settled is false and the sample's occupancy decides.
func byDim(n, dim int) (pick, settled bool) {
	switch {
	case n == 0 || dim == 0:
		return false, true
	case dim <= 3:
		return true, true
	case dim > 7:
		return false, true
	}
	return false, false
}

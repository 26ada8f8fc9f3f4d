package mudbscan

import (
	"fmt"
	"math"
	"sort"

	"mudbscan/internal/kdtree"
)

// KDistances returns the sorted k-distance graph of the dataset: for every
// point, the distance to its k-th nearest neighbor (excluding itself),
// sorted ascending. Plotting this curve and picking the "elbow" is the
// standard way to choose DBSCAN's ε (Ester et al. 1996, §4.2); k is usually
// MinPts-1. A non-empty dataset needs more than k points: with k or fewer, no
// point has a k-th neighbor, and that is an error.
func KDistances(points [][]float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("mudbscan: k must be at least 1, got %d", k)
	}
	set, err := validate(points, 1, 1)
	if err != nil {
		return nil, err
	}
	n := set.Len()
	if n == 0 {
		return nil, nil
	}
	if n <= k {
		return nil, fmt.Errorf("mudbscan: %d points have no %d-th nearest neighbor; need at least %d", n, k, k+1)
	}
	// The tree takes the copy validate made and reorders it, which leaves
	// every point in the set once: the sorted k-distances do not change.
	tree := kdtree.BuildSet(set, nil)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// k+1 nearest including the point itself at distance 0.
		_, dists := tree.KNN(set.Point(i), k+1)
		out = append(out, dists[len(dists)-1])
	}
	sort.Float64s(out)
	return out, nil
}

// SuggestEps proposes an ε for the given MinPts from the k-distance graph:
// the point of maximum curvature approximated by the largest relative jump
// in the upper half of the sorted curve, falling back to the 95th
// percentile. It is a heuristic starting point, not a substitute for domain
// knowledge.
func SuggestEps(points [][]float64, minPts int) (float64, error) {
	if minPts < 2 {
		return 0, fmt.Errorf("mudbscan: minPts must be at least 2 for eps estimation")
	}
	dists, err := KDistances(points, minPts-1)
	if err != nil {
		return 0, err
	}
	if len(dists) == 0 {
		return 0, fmt.Errorf("mudbscan: no points")
	}
	p95 := dists[int(float64(len(dists)-1)*0.95)]
	// Scan the upper half for the sharpest relative increase — the elbow
	// where cluster-interior distances give way to noise distances.
	bestRatio, bestVal := 1.0, p95
	for i := len(dists) / 2; i+1 < len(dists); i++ {
		a, b := dists[i], dists[i+1]
		if a <= 0 {
			continue
		}
		if r := b / a; r > bestRatio {
			bestRatio, bestVal = r, a
		}
	}
	if bestRatio < 1.05 || math.IsInf(bestVal, 0) {
		return p95, nil
	}
	return bestVal, nil
}

// Package clustering defines the result type shared by every DBSCAN variant
// in this repository, plus the equivalence checks that encode the paper's
// definition of *exact clustering* (§III): identical core-point set,
// identical core-point-to-cluster membership, and identical cluster count —
// regardless of the order points were processed in. Border points may be
// assigned to any cluster that contains a core point within ε of them, and
// the noise set must be identical.
package clustering

import "fmt"

// Noise is the label assigned to noise points.
const Noise = -1

// Result is the output of a DBSCAN-family clustering run.
type Result struct {
	// Labels[i] is the cluster id of point i in [0, NumClusters), or Noise.
	Labels []int
	// Core[i] reports whether point i is a core point.
	Core []bool
	// NumClusters is the number of clusters (excluding noise).
	NumClusters int
}

// NumCorePoints returns the number of core points.
func (r *Result) NumCorePoints() int {
	n := 0
	for _, c := range r.Core {
		if c {
			n++
		}
	}
	return n
}

// NumNoise returns the number of noise points.
func (r *Result) NumNoise() int {
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// Members returns the point indices of the given cluster label in ascending
// order. Pass Noise for the noise points.
func (r *Result) Members(label int) []int {
	var out []int
	for i, l := range r.Labels {
		if l == label {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks internal consistency: label range, dense labels, every
// cluster containing at least one core point, and no core labeled noise.
func (r *Result) Validate() error {
	if len(r.Labels) != len(r.Core) {
		return fmt.Errorf("clustering: %d labels vs %d core flags", len(r.Labels), len(r.Core))
	}
	seen := make([]bool, r.NumClusters)
	hasCore := make([]bool, r.NumClusters)
	for i, l := range r.Labels {
		switch {
		case l == Noise:
			if r.Core[i] {
				return fmt.Errorf("clustering: core point %d labeled noise", i)
			}
		case l < 0 || l >= r.NumClusters:
			return fmt.Errorf("clustering: point %d has label %d outside [0,%d)", i, l, r.NumClusters)
		default:
			seen[l] = true
			if r.Core[i] {
				hasCore[l] = true
			}
		}
	}
	for l := 0; l < r.NumClusters; l++ {
		if !seen[l] {
			return fmt.Errorf("clustering: label %d unused", l)
		}
		if !hasCore[l] {
			return fmt.Errorf("clustering: cluster %d has no core point", l)
		}
	}
	return nil
}

// Equivalent reports whether a and b are the same *exact* DBSCAN clustering
// in the paper's sense: same core set, same partition of core points into
// clusters (up to label permutation), same cluster count, and same noise
// set. Border labels are not compared: a border may join any cluster with a
// core within ε of it. Every exact engine of the repository picks its
// smallest-id core neighbor's, as dbscan.Brute does, so on the same ids
// their results are equal as data (reflect.DeepEqual); Equivalent is for
// results whose ids or coordinates differ (a permuted or transformed input)
// and for engines with another border rule.
func Equivalent(a, b *Result) error {
	if len(a.Labels) != len(b.Labels) {
		return fmt.Errorf("clustering: size mismatch %d vs %d", len(a.Labels), len(b.Labels))
	}
	if a.NumClusters != b.NumClusters {
		return fmt.Errorf("clustering: cluster count %d vs %d", a.NumClusters, b.NumClusters)
	}
	for i := range a.Core {
		if a.Core[i] != b.Core[i] {
			return fmt.Errorf("clustering: core flag of point %d differs (%v vs %v)", i, a.Core[i], b.Core[i])
		}
	}
	// Core partition must match under a consistent bijection of labels.
	a2b := make(map[int]int)
	b2a := make(map[int]int)
	for i := range a.Labels {
		if !a.Core[i] {
			// Noise set must be identical.
			if (a.Labels[i] == Noise) != (b.Labels[i] == Noise) {
				return fmt.Errorf("clustering: noise status of point %d differs", i)
			}
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if la == Noise || lb == Noise {
			return fmt.Errorf("clustering: core point %d labeled noise", i)
		}
		if mb, ok := a2b[la]; ok && mb != lb {
			return fmt.Errorf("clustering: core point %d splits cluster %d across %d and %d", i, la, mb, lb)
		}
		if ma, ok := b2a[lb]; ok && ma != la {
			return fmt.Errorf("clustering: core point %d merges clusters %d and %d", i, ma, la)
		}
		a2b[la] = lb
		b2a[lb] = la
	}
	return nil
}

// FromUnionLabels converts raw union-find component ids into a dense Result:
// components containing at least one core point become clusters numbered by
// first appearance; all other points become noise unless they are core
// (which would be a bug caught by Validate). Component ids are small
// non-negative integers — union-find representatives are point indices — so
// the component tables are two dense slices indexed by id, not maps.
func FromUnionLabels[C int | int32](component []C, core []bool) *Result {
	ids := 0
	for _, comp := range component {
		ids = max(ids, int(comp)+1)
	}
	clusterOf := make([]int32, ids) // a component's label+1, 0 until numbered
	hasCore := make([]bool, ids)
	for i, comp := range component {
		if core[i] {
			hasCore[comp] = true
		}
	}
	labels := make([]int, len(component))
	next := 0
	for i, comp := range component {
		if !hasCore[comp] {
			labels[i] = Noise
			continue
		}
		if clusterOf[comp] == 0 {
			next++
			clusterOf[comp] = int32(next)
		}
		labels[i] = int(clusterOf[comp]) - 1
	}
	return &Result{Labels: labels, Core: core, NumClusters: next}
}

// Package unionfind provides the disjoint-set data structures that DBSCAN
// variants in this repository use to merge points into clusters, following
// Patwary et al., "Experiments on Union-Find Algorithms for the Disjoint-Set
// Data Structure" (SEA'10): union by rank with path halving.
//
// Two variants are provided: UF, a single-goroutine structure used by the
// sequential baselines, and Concurrent, a lock-free structure safe for use
// from many goroutines at once, used by μDBSCAN at every worker count, by the
// cell engine and by the merge phases of the distributed algorithms.
package unionfind

// UF is a classic sequential disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a UF with n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the representative of x, halving the path along the way.
func (u *UF) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		gp := u.parent[u.parent[p]]
		u.parent[p] = gp
		p = gp
	}
	return int(p)
}

// Union merges the sets of x and y and reports whether a merge happened
// (false when they were already in the same set).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	// Union by rank.
	switch {
	case u.rank[rx] < u.rank[ry]:
		u.parent[rx] = int32(ry)
	case u.rank[rx] > u.rank[ry]:
		u.parent[ry] = int32(rx)
	default:
		u.parent[ry] = int32(rx)
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Labels assigns a dense label in [0, k) to every element, where k is the
// number of distinct sets, such that two elements share a label iff they are
// in the same set. Representative order determines label order, making the
// output deterministic for a given union sequence.
func (u *UF) Labels() []int {
	labels := make([]int, len(u.parent))
	next := 0
	rootLabel := make(map[int]int, u.sets)
	for i := range u.parent {
		r := u.Find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			rootLabel[r] = l
			next++
		}
		labels[i] = l
	}
	return labels
}

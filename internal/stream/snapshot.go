package stream

import (
	"math"
	"slices"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

// Snapshot is a point-in-time *exact* DBSCAN clustering of the stream's live
// window: the retained points in arrival order together with the labels,
// core flags and cluster count the auto engine's batch run produces over them
// at the stream's ε/minPts. Snapshots taken at the same clock over the same
// accepted stream are byte-identical.
type Snapshot struct {
	// Eps, MinPts and Dim echo the clusterer's parameters.
	Eps    float64
	MinPts int
	Dim    int
	// Time is the stream clock at which the snapshot was taken.
	Time float64
	// Points holds the live window in arrival order.
	Points *geom.PointSet
	// Seqs[i] is the global arrival sequence number (0-based, over all
	// accepted points) of window point i; Times[i] its timestamp.
	Seqs  []int64
	Times []float64
	// Labels, Core and NumClusters are the exact batch clustering of Points.
	Labels []int
	Core   []bool
	// NumClusters counts the clusters (excluding noise).
	NumClusters int
}

// Snapshot clusters the live window. It copies the arrival log under the
// lock and, outside it, runs on that copy the engine the library's auto
// selector picks for the window (cell.Prefer, profiled per window): the grid
// at one worker where it prefers the grid — at every d ≤ 3 — and the
// sequential μR-tree engine otherwise. The result is therefore byte-for-byte
// mudbscan.Cluster of the window's rows under EngineAuto, exact and not
// approximated at micro-cluster granularity; where the grid runs it is also
// byte-identical to brute force.
//
// Under concurrent ingest the window is the log at the moment of the copy:
// a contiguous run of arrivals whose timestamps never decrease.
func (c *Clusterer) Snapshot() *Snapshot {
	s := c.window()
	n := s.Len()
	if n == 0 {
		return s
	}
	var res *clustering.Result
	if cell.Prefer(s.Points, c.eps, c.minPts) {
		res, _ = cell.RunSet(s.Points, c.eps, c.minPts, cell.Options{Workers: 1})
	} else {
		res, _ = core.RunSet(s.Points, c.eps, c.minPts, core.Options{})
	}
	s.Labels = res.Labels
	s.Core = res.Core
	s.NumClusters = res.NumClusters
	return s
}

// window copies the arrival log into an unclustered snapshot.
func (c *Clusterer) window() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.times)
	s := &Snapshot{
		Eps: c.eps, MinPts: c.minPts, Dim: c.dim, Time: c.clock,
		Points: geom.AdoptPointSet(c.dim, slices.Clone(c.coords)),
	}
	if n == 0 {
		return s
	}
	s.Seqs = make([]int64, n)
	for i := range s.Seqs {
		s.Seqs[i] = c.first + int64(i)
	}
	s.Times = slices.Clone(c.times)
	return s
}

// Len returns the number of points in the snapshot window.
func (s *Snapshot) Len() int {
	if s.Points == nil {
		return 0
	}
	return s.Points.Len()
}

// Result returns the snapshot's clustering as a clustering.Result. The
// slices are shared with the snapshot, not copied.
func (s *Snapshot) Result() *clustering.Result {
	return &clustering.Result{Labels: s.Labels, Core: s.Core, NumClusters: s.NumClusters}
}

// Assign returns the cluster an arbitrary query point would join: the label
// of the nearest core point of the snapshot strictly within ε (ties broken
// toward the earliest-arrived core point). It returns clustering.Noise (-1)
// when:
//
//   - the snapshot window is empty,
//   - the query's dimensionality differs from the snapshot's,
//   - any query coordinate is NaN or ±Inf, or
//   - no core point lies strictly within ε — including a query at exactly
//     distance ε from its nearest core, since DBSCAN neighborhoods in this
//     repository are open balls (strict <).
//
// Assign matches batch DBSCAN's border rule: a point within ε of a core
// point joins that core's cluster; one within ε of only non-core points is
// noise.
func (s *Snapshot) Assign(p []float64) int {
	if s.Len() == 0 || len(p) != s.Dim {
		return clustering.Noise
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return clustering.Noise
		}
	}
	kern := geom.KernelFor(s.Dim)
	best := clustering.Noise
	bestD := s.Eps * s.Eps
	for i, n := 0, s.Points.Len(); i < n; i++ {
		if !s.Core[i] {
			continue
		}
		if d := kern(p, s.Points.Row(i)); d < bestD {
			bestD = d
			best = s.Labels[i]
		}
	}
	return best
}

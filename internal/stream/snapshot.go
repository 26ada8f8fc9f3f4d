package stream

import (
	"cmp"
	"math"
	"slices"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

// Snapshot is a point-in-time *exact* DBSCAN clustering of the stream's live
// window: the retained points in arrival order together with the labels,
// core flags and cluster count a batch μDBSCAN run produces over them at the
// stream's ε/minPts. Snapshots taken at the same clock over the same
// accepted stream are byte-identical regardless of the shard count or the
// maintenance cadence.
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

// Snapshot clusters the live window. It gathers every unexpired point
// (taking each shard's lock in turn), orders them by arrival, and runs the
// batch μDBSCAN engine — the same incremental mc.Builder pipeline as
// mudbscan.Cluster — so the result is exact, not approximated at
// micro-cluster granularity.
//
// Under concurrent ingest the window reflects some linearization of the
// in-flight Adds; with ingest quiesced it is exactly the accepted live set.
func (c *Clusterer) Snapshot() *Snapshot {
	now := c.now()
	cutoff := math.Inf(-1)
	if !math.IsInf(c.horizon, 1) {
		cutoff = now - c.horizon
	}

	var (
		seqs   []int64
		times  []float64
		coords []float64
	)
	for _, sh := range c.shards {
		sh.mu.Lock()
		// Iterate cells in sorted-key order so the gather itself is
		// deterministic (the final arrival-order sort would mask map order
		// anyway, but determinism should not hinge on a later step).
		keys := make([]cellKey, 0, len(sh.cells))
		for k := range sh.cells {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, cellKey.compare)
		for _, k := range keys {
			cl := sh.cells[k]
			for i, t := range cl.times {
				if t < cutoff {
					continue
				}
				seqs = append(seqs, cl.seqs[i])
				times = append(times, t)
				coords = append(coords, cl.coords[i*c.dim:(i+1)*c.dim]...)
			}
		}
		sh.mu.Unlock()
	}

	// Arrival order: sequence numbers are unique, so sorting (seq, position
	// gathered at) pairs is a total order and the window comes out the same
	// whatever the shard count put where.
	type arrival struct {
		seq int64
		at  int // 16 bytes a pair either way: an int32 would only add a ceiling
	}
	n := len(seqs)
	ord := make([]arrival, n)
	for i, seq := range seqs {
		ord[i] = arrival{seq, i}
	}
	slices.SortFunc(ord, func(a, b arrival) int { return cmp.Compare(a.seq, b.seq) })

	s := &Snapshot{
		Eps: c.eps, MinPts: c.minPts, Dim: c.dim, Time: now,
		Points: geom.NewPointSet(c.dim, n),
	}
	if n == 0 {
		return s
	}
	s.Seqs = make([]int64, n)
	s.Times = make([]float64, n)
	pts := make([]geom.Point, n)
	for i, a := range ord {
		s.Seqs[i] = a.seq
		s.Times[i] = times[a.at]
		s.Points.AppendRow(coords[a.at*c.dim : (a.at+1)*c.dim])
		pts[i] = s.Points.Point(i)
	}
	res, _ := core.Run(pts, c.eps, c.minPts, core.Options{})
	s.Labels = res.Labels
	s.Core = res.Core
	s.NumClusters = res.NumClusters
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

package mudbscan

import (
	"mudbscan/internal/geom"
	"mudbscan/internal/stream"
)

// StreamClusterer ingests an unbounded point stream into an arrival-ordered
// window and serves exact clustering snapshots of it — the data-stream
// adaptation of μDBSCAN (the paper's §VII future work). Snapshots are not
// approximations: each one is byte-for-byte Cluster of the points currently
// in the window under EngineAuto — the grid engine at every d ≤ 3, which is
// then also brute force's answer byte for byte, and the engine auto picks
// from a sample profile elsewhere. All methods are safe for concurrent use.
type StreamClusterer = stream.Clusterer

// StreamSnapshot is a point-in-time exact clustering of the stream's live
// window, carrying the window's points, arrival sequence numbers and
// timestamps alongside the labels.
type StreamSnapshot = stream.Snapshot

// StreamOptions tunes the stream clusterer's window: Lambda > 0 gives a
// damped window whose stale points expire; Lambda = 0 a landmark window that
// never forgets.
type StreamOptions = stream.Options

// StreamStats summarizes the stream clusterer's ingest and eviction counters.
type StreamStats = stream.Stats

// NewStreamClusterer creates a stream clusterer for dim-dimensional points
// with DBSCAN parameters eps and minPts.
func NewStreamClusterer(dim int, eps float64, minPts int, opts StreamOptions) (*StreamClusterer, error) {
	return stream.New(dim, eps, minPts, opts)
}

// WithStreamWindow selects ClusterStream's damped window: a point's weight
// decays as exp(-lambda·age) with one time unit per ingested point, and the
// point expires once its weight falls below pruneBelow (pass 0 for the
// default 0.1). With lambda = 0 (the default) the window is a landmark
// window and ClusterStream matches Cluster under EngineAuto exactly.
func WithStreamWindow(lambda, pruneBelow float64) Option {
	return func(c *config) { c.streamLambda = lambda; c.streamPrune = pruneBelow }
}

// ClusterStream feeds points through the streaming tier in arrival order
// (one logical time unit per point) and returns the final snapshot's
// clustering mapped back onto the input rows. Under the default landmark
// window the result is identical to Cluster's under EngineAuto. Under a
// damped window (WithStreamWindow) points that expired before the end of the
// stream are reported as Noise with Core false, and the live points carry
// the exact clustering of the final window. WithWorkers is ignored.
func ClusterStream(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	set, err := validate(points, eps, minPts)
	if err != nil {
		return nil, err
	}
	return clusterStream(set, eps, minPts, &cfg)
}

// clusterStream is EngineStream on a validated set.
func clusterStream(set *geom.PointSet, eps float64, minPts int, cfg *config) (*Result, error) {
	n := set.Len()
	if n == 0 {
		return &Result{}, nil
	}
	c, err := stream.New(set.Dim(), eps, minPts, stream.Options{
		Lambda:     cfg.streamLambda,
		PruneBelow: cfg.streamPrune,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := c.Add(set.Row(i)); err != nil {
			return nil, err
		}
	}
	snap := c.Snapshot()
	labels := make([]int, n)
	corePts := make([]bool, n)
	for i := range labels {
		labels[i] = Noise
	}
	for r := 0; r < snap.Len(); r++ {
		labels[snap.Seqs[r]] = snap.Labels[r]
		corePts[snap.Seqs[r]] = snap.Core[r]
	}
	return &Result{Labels: labels, Core: corePts, NumClusters: snap.NumClusters}, nil
}

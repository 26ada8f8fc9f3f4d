package dist

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

// MuDBSCAND runs μDBSCAN-D (Algorithm 9): sampling-based kd partitioning of
// the data across p simulated ranks, ε-extended halo exchange, rank-local
// μDBSCAN, and a query-free merge of the local clusterings. The returned
// clustering is exact — identical (in the paper's sense) to sequential
// DBSCAN on the whole dataset — for any p that is a power of two.
//
// Every rank runs core.RunLocal once, over its local points followed by the
// halo copies it received, after the halo exchange has completed.
func MuDBSCAND(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error) {
	return runDistributed(pts, eps, minPts, p, opts, func(combined []geom.Point, e float64, mp, localCount int) *core.LocalResult {
		return core.RunLocal(combined, e, mp, localCount, opts.Core)
	})
}

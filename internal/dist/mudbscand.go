package dist

import (
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

// MuDBSCAND runs μDBSCAN-D (Algorithm 9): kd partitioning of the data
// across p simulated ranks (exact medians, or sampled ones with
// Options.SampleSize), ε-extended halo exchange, rank-local μDBSCAN, and a
// query-free merge of the local clusterings. The returned clustering is
// exact — identical (in the paper's sense) to sequential DBSCAN on the whole
// dataset — for any p that is a power of two.
//
// Every rank runs core.RunLocal once, after the halo exchange has completed,
// over its one block of points: its own rows followed by the halo copies it
// received. The local run reads that block in place, and swaps exact core
// flags with the other ranks between its steps 3 and 4, so it settles every
// link and every owned border itself: the merge is its components alone.
func MuDBSCAND(pts []geom.Point, eps float64, minPts, p int, opts Options) (*clustering.Result, *Stats, error) {
	return runDistributed(pts, eps, minPts, p, opts, func(set *geom.PointSet, e float64, mp, localCount int, halo core.Halo) *core.LocalResult {
		return core.RunLocal(set, e, mp, localCount, opts.Core, halo)
	})
}

// Package shared is the shared-memory parallel μDBSCAN the paper lists as
// future work (§VII): one process, many cores, the same exact clustering. It
// holds no algorithm of its own — internal/core's one driver run on more than
// one worker is that version — only the entry point whose worker count
// defaults to every core.
package shared

import (
	"runtime"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

type (
	// Options is core.Options; here Workers ≤ 0 means GOMAXPROCS.
	Options = core.Options
	// Stats is core.Stats.
	Stats = core.Stats
	// StepTimes is core.StepTimes.
	StepTimes = core.StepTimes
)

// Run clusters pts with μDBSCAN on opts.Workers goroutines (default
// GOMAXPROCS) and returns the exact DBSCAN result.
func Run(pts []geom.Point, eps float64, minPts int, opts Options) (*clustering.Result, *Stats) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return core.Run(pts, eps, minPts, opts)
}

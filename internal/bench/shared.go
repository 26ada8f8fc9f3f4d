package bench

import (
	"fmt"
	"runtime"

	"mudbscan/internal/core"
)

// sharedWorkerCounts returns the worker sweep 1, 2, 4, ... up to GOMAXPROCS
// (always including GOMAXPROCS itself).
func sharedWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// SharedMemory reports the multi-core shared-memory μDBSCAN phase split
// across a worker-count sweep on the MPAGB6M3D analogue (the ~100k-point
// spec at default scale): per-phase wall times, total speedup over one
// worker, and the distance-computation count — the shared-memory companion
// to Table III/VIII.
func SharedMemory(cfg Config) error {
	cfg = cfg.withDefaults()
	s := specMPAGB
	pts := s.Points(cfg.Scale)
	t := newTable(cfg.Out)
	fmt.Fprintf(cfg.Out, "Shared-memory μDBSCAN phase split, %s (n=%d)\n",
		s.ScaledName(cfg.Scale), len(pts))
	t.row("Workers", "Tree", "Reach", "Cluster", "Post", "Total", "Speedup", "DistCalcs", "%query saves")
	var base float64
	for _, w := range sharedWorkerCounts() {
		_, st := core.Run(pts, s.Eps, s.MinPts, core.Options{Workers: w})
		total := st.Steps.Total()
		if base == 0 {
			base = float64(total)
		}
		t.row(fmt.Sprint(w),
			seconds(st.Steps.TreeConstruction), seconds(st.Steps.FindingReachable),
			seconds(st.Steps.Clustering), seconds(st.Steps.PostProcessing),
			seconds(total),
			fmt.Sprintf("%.2f", base/float64(total)),
			fmt.Sprint(st.DistCalcs), pct(st.QuerySavedPct()))
	}
	t.flush()
	return nil
}

package dist

import (
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/unionfind"
)

// classicResult finishes a rank-local run of internal/dbscan's union-find
// driver (the one classic-DBSCAN loop, shared with the sequential
// baselines), whose owned rows' core flags are exact once its loop is done.
// It swaps them for the halo copies' exact flags, outside every timer; then,
// timed as post-processing, it settles the links the loop left waiting and
// runs closing, the caller's own pass over the exact flags (nil for none);
// then it reads off the components, with the step times the caller
// measured. The components hold every link and owned border the rank owes.
func classicResult(uf *unionfind.UF, isCore []bool, h *dbscan.HaloResult, steps core.StepTimes, halo core.Halo, closing func()) *core.LocalResult {
	halo.Swap(isCore)
	steps.PostProcessing = timed(func() {
		h.Settle(uf, isCore, halo.IDs)
		if closing != nil {
			closing()
		}
	})
	comp := make([]int32, uf.Len())
	for i := range comp {
		comp[i] = int32(uf.Find(i))
	}
	return &core.LocalResult{
		Core:  isCore,
		Comp:  comp,
		Stats: &core.Stats{Queries: h.Queries, QueriesSaved: h.QueriesSaved, Steps: steps},
	}
}

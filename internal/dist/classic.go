package dist

import (
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/unionfind"
)

// classicResult hands a rank-local run of internal/dbscan's union-find
// driver (the one classic-DBSCAN loop, shared with the sequential
// baselines) to the merge: its components, core flags, deferred pairs and
// the stored neighborhoods of the points no core claimed, with the step
// times the caller measured.
func classicResult(uf *unionfind.UF, isCore []bool, h dbscan.HaloResult, steps core.StepTimes) *core.LocalResult {
	comp := make([]int32, uf.Len())
	for i := range comp {
		comp[i] = int32(uf.Find(i))
	}
	pairs := make([]core.Pair, len(h.Pairs))
	for k, pr := range h.Pairs {
		pairs[k] = core.Pair{A: pr[0], B: pr[1]}
	}
	return &core.LocalResult{
		Core:      isCore,
		Comp:      comp,
		Pairs:     pairs,
		NoiseNbhd: h.NoiseNbhd,
		Stats:     &core.Stats{Queries: h.Queries, QueriesSaved: h.QueriesSaved, Steps: steps},
	}
}

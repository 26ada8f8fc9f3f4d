package dist

import (
	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/unionfind"
)

// classicResult hands a rank-local run of internal/dbscan's union-find
// driver (the one classic-DBSCAN loop, shared with the sequential
// baselines) to the merge, after the flag swap the run ends with: its
// components and core flags, with the step times the caller measured, and
// the links it deferred.
func classicResult(uf *unionfind.UF, isCore []bool, h dbscan.HaloResult, steps core.StepTimes, halo core.Halo) (*core.LocalResult, dbscan.HaloResult) {
	halo.Swap(isCore)
	comp := make([]int32, uf.Len())
	for i := range comp {
		comp[i] = int32(uf.Find(i))
	}
	return &core.LocalResult{
		Core:  isCore,
		Comp:  comp,
		Stats: &core.Stats{Queries: h.Queries, QueriesSaved: h.QueriesSaved, Steps: steps},
	}, h
}

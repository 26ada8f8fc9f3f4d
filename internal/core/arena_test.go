package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
)

// TestArenasLendAndReturn pins the per-worker lend/return lifetime at every
// worker count: a run borrows the lent arenas' buffers and returns them
// grown, back-to-back runs stay exact, and a run over the same data starts
// warm — no fresh query-scratch growth at one worker, where the load a worker
// sees is deterministic. Workers the arenas do not cover (too few entries, or
// a nil one) fall back to run-owned scratch.
func TestArenasLendAndReturn(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := blobs(rng, 1200, 2, 3, 0.3, 0.2)
	eps, minPts := 0.5, 5
	want, _ := dbscan.Brute(pts, eps, minPts)

	for _, tc := range []struct {
		workers int
		arenas  []*Arena
	}{
		{0, []*Arena{{}}},
		{1, []*Arena{{}, {}}}, // the extra entry is ignored
		{4, []*Arena{{}, {}, {}, {}}},
		{6, []*Arena{{}, nil, {}}}, // workers 1 and 3..5 own their scratch
	} {
		t.Run(fmt.Sprintf("workers=%d/arenas=%d", tc.workers, len(tc.arenas)), func(t *testing.T) {
			opts := Options{Workers: tc.workers, Arenas: tc.arenas}
			var warm [2]int
			anyWarm := func() bool {
				for _, a := range tc.arenas {
					if a != nil && cap(a.Nbhd) > 0 {
						return true
					}
				}
				return false
			}
			// Past one worker, which worker sees which load is the
			// scheduler's choice: on a busy two-CPU host the covered workers
			// can draw no query at all in three runs, so keep running until
			// one has.
			for trial := 0; trial < 3 || (trial < 200 && !anyWarm()); trial++ {
				got, _ := Run(pts, eps, minPts, opts)
				if err := clustering.Equivalent(want, got); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if tc.workers > 1 {
					continue
				}
				a := tc.arenas[0]
				if trial > 0 && warm != [2]int{cap(a.Nbhd), cap(a.Dist)} {
					t.Fatalf("trial %d: warm scratch grew again: %v -> [%d %d]",
						trial, warm, cap(a.Nbhd), cap(a.Dist))
				}
				warm = [2]int{cap(a.Nbhd), cap(a.Dist)}
			}
			warmed := 0
			for w, a := range tc.arenas {
				if a == nil {
					continue
				}
				if w >= max(tc.workers, 1) && (cap(a.Nbhd) > 0 || cap(a.Dist) > 0) {
					t.Fatalf("arena %d has no worker, yet came back grown", w)
				}
				if cap(a.Nbhd) > 0 {
					warmed++
				}
				for v, b := range tc.arenas[:w] {
					if b != nil && cap(a.Nbhd) > 0 && cap(b.Nbhd) > 0 && &a.Nbhd[:1][0] == &b.Nbhd[:1][0] {
						t.Fatalf("arenas %d and %d share a buffer", v, w)
					}
				}
			}
			if warmed == 0 {
				t.Fatal("no arena came back warmed")
			}
		})
	}
}

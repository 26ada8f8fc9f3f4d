package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// engineBruteMaxN caps the O(n²) brute-force column; beyond it the row
// prints "> budget" and the exactness check falls back to μR-tree-vs-cell
// agreement (both engines are independently conformance-tested against
// brute force on the pinned datasets).
const engineBruteMaxN = 25000

// Engines regenerates the cross-engine head-to-head behind the auto-selector
// (DESIGN.md §15, EXPERIMENTS.md §Engines): brute force, sequential μR-tree,
// shared-memory μR-tree and the grid cell engine on the same datasets, across
// dimensionalities and on the paper's scenario analogues. Every row verifies
// the exact-result contract inline — the cell engine's labels must DeepEqual
// the sequential μR-tree's at one worker and at GOMAXPROCS (and brute
// force's, where the budget allows running it) — so the table can never
// report the speedup of a wrong answer. The "pick" column is the
// auto-selector's decision for the row, putting the crossover next to the
// timings that justify it.
func Engines(cfg Config) error {
	cfg = cfg.withDefaults()
	workers := runtime.GOMAXPROCS(0)

	type row struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}
	scaled := func(n int) int {
		n = int(float64(n) * cfg.Scale)
		if n < 500 {
			n = 500
		}
		return n
	}
	// Uniform fills of [0,20)^d with ε calibrated to ~20 expected neighbors,
	// so every engine faces a comparable per-point workload as d grows.
	rows := []row{
		{"uniform-2d", data.Uniform(scaled(20000), 2, 20, 1), 0.36, 5},
		{"uniform-3d", data.Uniform(scaled(20000), 3, 20, 2), 1.25, 5},
		{"uniform-5d", data.Uniform(scaled(10000), 5, 20, 3), 4.2, 5},
		{"uniform-8d", data.Uniform(scaled(6000), 8, 20, 4), 8.2, 5},
	}
	// Scenario analogues from the paper's Table II corpus, pre-scaled so
	// brute force stays inside the budget at cfg.Scale 1.
	for _, s := range []struct {
		spec  Spec
		scale float64
	}{
		{spec3DSRN, 0.45}, {specDGB, 0.4}, {specHHP, 0.35}, {specKDDB14, 0.8},
	} {
		rows = append(rows, row{
			s.spec.ScaledName(s.scale), s.spec.Points(s.scale * cfg.Scale),
			s.spec.Eps, s.spec.MinPts,
		})
	}

	fmt.Fprintln(cfg.Out, "-- engine head-to-head: brute vs μR-tree (seq, shared) vs grid cell --")
	t := newTable(cfg.Out)
	t.row("dataset", "d", "n", "brute", "mu-seq",
		fmt.Sprintf("shared-%d", workers), "cell-1", fmt.Sprintf("cell-%d", workers),
		"mu/cell-1", "pick")
	for _, r := range rows {
		var (
			bruteRes, muRes, cell1Res, cellPRes  *clustering.Result
			sharedRes                            *clustering.Result
			bruteT, muT, sharedT, cell1T, cellPT time.Duration
		)
		bruteCol := "> budget"
		if len(r.pts) <= engineBruteMaxN {
			bruteT = timed(func() { bruteRes, _ = dbscan.Brute(r.pts, r.eps, r.minPts) })
			bruteCol = seconds(bruteT)
		}
		muT = timed(func() { muRes, _ = core.Run(r.pts, r.eps, r.minPts, core.Options{}) })
		sharedT = timed(func() {
			sharedRes, _ = core.Run(r.pts, r.eps, r.minPts, core.Options{Workers: workers})
		})
		cell1T = timed(func() { cell1Res, _ = cell.Run(r.pts, r.eps, r.minPts, cell.Options{Workers: 1}) })
		cellPT = timed(func() { cellPRes, _ = cell.Run(r.pts, r.eps, r.minPts, cell.Options{Workers: workers}) })

		// The cell engine is byte-identical to brute force at any worker
		// count; the μR-tree engines guarantee the same partition, cores and
		// noise but may hand a tie-breakable border to the other eligible
		// cluster, so their bar is exact equivalence.
		if !reflect.DeepEqual(cell1Res, cellPRes) {
			return fmt.Errorf("engines: %s: cell engine not worker-invariant", r.name)
		}
		if bruteRes != nil && !reflect.DeepEqual(bruteRes, cell1Res) {
			return fmt.Errorf("engines: %s: cell result differs from brute force", r.name)
		}
		if err := clustering.Equivalent(muRes, cell1Res); err != nil {
			return fmt.Errorf("engines: %s: cell result not equivalent to μR-tree: %v", r.name, err)
		}
		if !reflect.DeepEqual(muRes.Core, cell1Res.Core) {
			return fmt.Errorf("engines: %s: cell core flags differ from μR-tree", r.name)
		}
		if err := clustering.Equivalent(muRes, sharedRes); err != nil {
			return fmt.Errorf("engines: %s: shared result not equivalent: %v", r.name, err)
		}

		pick := "mu"
		if cell.Decide(cell.Sample(r.pts, r.eps, r.minPts)) {
			pick = "cell"
		}
		t.row(
			r.name,
			fmt.Sprintf("%d", len(r.pts[0])),
			fmt.Sprintf("%d", len(r.pts)),
			bruteCol,
			seconds(muT),
			seconds(sharedT),
			seconds(cell1T),
			seconds(cellPT),
			fmt.Sprintf("%.2fx", muT.Seconds()/cell1T.Seconds()),
			pick,
		)
	}
	t.flush()
	return nil
}

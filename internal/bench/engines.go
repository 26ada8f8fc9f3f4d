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
// prints "> budget" and the exactness check holds every engine to the
// one-worker cell run instead (each engine is conformance-tested against
// brute force on the pinned datasets).
const engineBruteMaxN = 25000

// Engines regenerates the cross-engine head-to-head behind the auto-selector
// (DESIGN.md §15, EXPERIMENTS.md §Engines): brute force, sequential μR-tree,
// shared-memory μR-tree and the grid cell engine on the same datasets, across
// dimensionalities and on the paper's scenario analogues. Every row verifies
// the exact-result contract inline — every engine's result, at one worker
// and at GOMAXPROCS, must DeepEqual brute force's (the one-worker cell run's
// where the budget skips brute force) — so the table can never report the
// speedup of a wrong answer. The "pick" column is the
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

		// Every exact engine gives each border its smallest-id core
		// neighbor, as brute force does, so every result is brute force's,
		// byte for byte; where brute force is skipped, the one-worker cell
		// run stands in for it.
		ref := bruteRes
		if ref == nil {
			ref = cell1Res
		}
		for _, e := range []struct {
			name string
			res  *clustering.Result
		}{{"cell", cell1Res}, {"cell@p", cellPRes}, {"μR-tree", muRes}, {"shared", sharedRes}} {
			if !reflect.DeepEqual(ref, e.res) {
				return fmt.Errorf("engines: %s: %s result differs from brute force", r.name, e.name)
			}
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

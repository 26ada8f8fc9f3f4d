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
	"mudbscan/internal/dist"
	"mudbscan/internal/stream"
)

// scenarioDistRanks is the rank count the distributed engine runs the
// scenario corpus at; the datasets are small, so a modest power of two keeps
// per-rank work meaningful.
const scenarioDistRanks = 4

// Scenarios measures every engine on every scenario of the pinned corpus
// (data.Scenarios, EXPERIMENTS.md §Scenarios): brute force, sequential
// μR-tree, shared-memory μR-tree, the grid cell engine, μDBSCAN-D, and the
// streaming tier (full ingest in arrival order plus one exact snapshot). The
// corpus couples spatial distributions to adversarial arrival orders, so the
// stream column prices the ingest path the batch engines never see. Every
// row verifies the exact-result contract inline — every engine's result,
// the stream snapshot's included, must DeepEqual brute force's — so the table
// can never report the speedup of a wrong answer. The corpus is
// pinned at its conformance sizes; cfg.Scale is ignored.
func Scenarios(cfg Config) error {
	cfg = cfg.withDefaults()
	workers := runtime.GOMAXPROCS(0)

	fmt.Fprintln(cfg.Out, "-- scenario corpus: every engine on every arrival-ordered workload --")
	t := newTable(cfg.Out)
	t.row("scenario", "d", "n", "clusters", "brute", "mu-seq",
		fmt.Sprintf("shared-%d", workers), fmt.Sprintf("cell-%d", workers),
		fmt.Sprintf("dist-%d", scenarioDistRanks), "stream")
	for _, sc := range data.Scenarios() {
		var (
			bruteRes, muRes, sharedRes, cellRes, distRes, streamRes *clustering.Result
			bruteT, muT, sharedT, cellT, distT, streamT             time.Duration
		)
		bruteT = timed(func() { bruteRes, _ = dbscan.Brute(sc.Pts, sc.Eps, sc.MinPts) })
		muT = timed(func() { muRes, _ = core.Run(sc.Pts, sc.Eps, sc.MinPts, core.Options{}) })
		sharedT = timed(func() {
			sharedRes, _ = core.Run(sc.Pts, sc.Eps, sc.MinPts, core.Options{Workers: workers})
		})
		cellT = timed(func() {
			cellRes, _ = cell.Run(sc.Pts, sc.Eps, sc.MinPts, cell.Options{Workers: workers})
		})
		var distErr error
		distT = timed(func() {
			distRes, _, distErr = dist.MuDBSCAND(sc.Pts, sc.Eps, sc.MinPts, scenarioDistRanks, dist.Options{Seed: 1, Exec: dist.ExecSerial})
		})
		if distErr != nil {
			return fmt.Errorf("scenarios: %s: dist: %v", sc.Name, distErr)
		}
		var streamErr error
		streamT = timed(func() {
			var c *stream.Clusterer
			c, streamErr = stream.New(len(sc.Pts[0]), sc.Eps, sc.MinPts, stream.Options{})
			if streamErr != nil {
				return
			}
			for _, p := range sc.Pts {
				if streamErr = c.Add(p); streamErr != nil {
					return
				}
			}
			streamRes = c.Snapshot().Result()
		})
		if streamErr != nil {
			return fmt.Errorf("scenarios: %s: stream: %v", sc.Name, streamErr)
		}

		// Inline exactness: every engine gives each border its smallest-id
		// core neighbor, as brute force does, so every result is brute
		// force's, byte for byte — the landmark stream snapshot after
		// in-order ingest included.
		for _, e := range []struct {
			name string
			res  *clustering.Result
		}{{"cell", cellRes}, {"mu", muRes}, {"shared", sharedRes}, {"dist", distRes}, {"stream", streamRes}} {
			if !reflect.DeepEqual(bruteRes, e.res) {
				return fmt.Errorf("scenarios: %s: %s result differs from brute force", sc.Name, e.name)
			}
		}

		t.row(
			sc.Name,
			fmt.Sprintf("%d", len(sc.Pts[0])),
			fmt.Sprintf("%d", len(sc.Pts)),
			fmt.Sprintf("%d", bruteRes.NumClusters),
			seconds(bruteT),
			seconds(muT),
			seconds(sharedT),
			seconds(cellT),
			seconds(distT),
			seconds(streamT),
		)
	}
	t.flush()
	return nil
}

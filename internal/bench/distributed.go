package bench

import (
	"fmt"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
)

// distAlgo adapts the distributed algorithms to one signature.
type distAlgo func(pts []geom.Point, eps float64, minPts, p int, opts dist.Options) (*clustering.Result, *dist.Stats, error)

// runDist runs one distributed algorithm under the serial simulation (the
// tables' isolation-timing methodology; see the wallclock experiment for
// the concurrent driver) and formats its total time, or the error marker
// the paper uses.
func runDist(algo distAlgo, pts []geom.Point, eps float64, minPts, ranks int) string {
	_, st, err := algo(pts, eps, minPts, ranks, dist.Options{Seed: 1, Exec: dist.ExecSerial})
	if err != nil {
		return "-"
	}
	return seconds(st.Phases.Total())
}

// Table5 regenerates Table V: run time of the five distributed algorithms
// on the Table V dataset analogues at the configured rank count (32 by
// default, the paper's cluster size). "-" marks runs the algorithm could
// not execute (the grid baselines' dimensionality blow-up).
func Table5(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg.Out)
	fmt.Fprintf(cfg.Out, "Table V analogue: distributed run time (s) on %d simulated ranks\n", cfg.Ranks)
	t.row("Dataset", "n", "d", "eps", "MinPts", "PDSDBSCAN-D", "GridDBSCAN-D", "HPDBSCAN", "RP-DBSCAN", "μDBSCAN-D")
	for _, s := range Table5Specs() {
		pts := s.Points(cfg.Scale)
		// RP-DBSCAN's phases are not split; report its wall time.
		rp := "-"
		var rpErr error
		rpTime := timed(func() { _, _, rpErr = dist.RPDBSCAN(pts, s.Eps, s.MinPts, cfg.Ranks, 0.99, dist.Options{}) })
		if rpErr == nil {
			rp = seconds(rpTime)
		}
		t.row(s.ScaledName(cfg.Scale), fmt.Sprint(len(pts)), fmt.Sprint(s.Dim),
			fmt.Sprintf("%g", s.Eps), fmt.Sprint(s.MinPts),
			runDist(dist.PDSDBSCAND, pts, s.Eps, s.MinPts, cfg.Ranks),
			runDist(dist.GridDBSCAND, pts, s.Eps, s.MinPts, cfg.Ranks),
			runDist(dist.HPDBSCAN, pts, s.Eps, s.MinPts, cfg.Ranks),
			rp,
			runDist(dist.MuDBSCAND, pts, s.Eps, s.MinPts, cfg.Ranks))
	}
	t.flush()
	return nil
}

// Table6 regenerates Table VI: μDBSCAN-D run time with increasing rank
// counts (32, 64, 128) on the two large dataset analogues.
func Table6(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg.Out)
	fmt.Fprintln(cfg.Out, "Table VI analogue: μDBSCAN-D run time (s) with increasing ranks")
	ranks := []int{cfg.Ranks, cfg.Ranks * 2, cfg.Ranks * 4}
	t.row("Dataset", "eps", "MinPts",
		fmt.Sprint(ranks[0]), fmt.Sprint(ranks[1]), fmt.Sprint(ranks[2]))
	for _, s := range []Spec{specFOF500M, specMPAGD800M} {
		pts := s.Points(cfg.Scale)
		cells := make([]string, len(ranks))
		for i, p := range ranks {
			cells[i] = runDist(dist.MuDBSCAND, pts, s.Eps, s.MinPts, p)
		}
		t.row(s.ScaledName(cfg.Scale), fmt.Sprintf("%g", s.Eps), fmt.Sprint(s.MinPts),
			cells[0], cells[1], cells[2])
	}
	t.flush()
	return nil
}

// Table7 regenerates Table VII: percentage split-up of μDBSCAN-D's phases
// (local steps plus merge) on three dataset analogues.
func Table7(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg.Out)
	fmt.Fprintf(cfg.Out, "Table VII analogue: %% split-up of μDBSCAN-D phases on %d ranks\n", cfg.Ranks)
	t.row("Phase", "FOF28M14D-A", "MPAGD100M3D-A", "FOF56M3D-A")
	specs := []Spec{specFOF14D, specMPAGD, specFOF}
	type split struct{ tree, reach, cluster, post, merge float64 }
	splits := make([]split, len(specs))
	for i, s := range specs {
		pts := s.Points(cfg.Scale)
		_, st, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, cfg.Ranks, dist.Options{Seed: 1, Exec: dist.ExecSerial})
		if err != nil {
			return err
		}
		ph := st.Phases
		total := float64(ph.TreeConstruction + ph.FindingReachable + ph.Clustering + ph.PostProcessing + ph.Merge)
		splits[i] = split{
			tree:    100 * float64(ph.TreeConstruction) / total,
			reach:   100 * float64(ph.FindingReachable) / total,
			cluster: 100 * float64(ph.Clustering) / total,
			post:    100 * float64(ph.PostProcessing) / total,
			merge:   100 * float64(ph.Merge) / total,
		}
	}
	rows := []struct {
		name string
		get  func(split) float64
	}{
		{"Tree Construction", func(s split) float64 { return s.tree }},
		{"Finding Reach. Groups", func(s split) float64 { return s.reach }},
		{"Clustering", func(s split) float64 { return s.cluster }},
		{"Post Processing", func(s split) float64 { return s.post }},
		{"Merging Time", func(s split) float64 { return s.merge }},
	}
	for _, r := range rows {
		t.row(r.name, pct(r.get(splits[0])), pct(r.get(splits[1])), pct(r.get(splits[2])))
	}
	t.flush()
	return nil
}

// Table8 regenerates Table VIII: per-step execution time of sequential
// μDBSCAN vs μDBSCAN-D on the configured ranks for the MPAGD8M analogue,
// with per-step speedups.
func Table8(cfg Config) error {
	cfg = cfg.withDefaults()
	s := specMPAGD8M
	pts := s.Points(cfg.Scale)

	var seqStats *core.Stats
	seqTotal := timed(func() { _, seqStats = core.Run(pts, s.Eps, s.MinPts, core.Options{}) })

	_, dst, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, cfg.Ranks, dist.Options{Seed: 1, Exec: dist.ExecSerial})
	if err != nil {
		return err
	}

	t := newTable(cfg.Out)
	fmt.Fprintf(cfg.Out, "Table VIII analogue: per-step times, μDBSCAN vs μDBSCAN-D (%d ranks), %s\n",
		cfg.Ranks, s.ScaledName(cfg.Scale))
	t.row("Step", "μDBSCAN", "μDBSCAN-D", "Speed-Up")
	row := func(name string, a, b time.Duration) {
		su := "-"
		if b > 0 {
			su = fmt.Sprintf("%.2f", float64(a)/float64(b))
		}
		t.row(name, seconds(a), seconds(b), su)
	}
	row("Tree Construction", seqStats.Steps.TreeConstruction, dst.Phases.TreeConstruction)
	row("Finding Reachable Groups", seqStats.Steps.FindingReachable, dst.Phases.FindingReachable)
	row("Clustering", seqStats.Steps.Clustering, dst.Phases.Clustering)
	row("Post Processing", seqStats.Steps.PostProcessing, dst.Phases.PostProcessing)
	t.row("Merging Time", "—", seconds(dst.Phases.Merge), "—")
	row("Total Time", seqTotal, dst.Phases.Total())
	// Traffic = what the runtime carried: partition, halo, flags and the
	// merge gather, which holds every byte MergeBytes counts.
	t.row("(halo exchange, excluded)", "—", seconds(dst.Phases.HaloExchange),
		fmt.Sprintf("%d KiB", dst.Comm.TotalBytes()/1024))
	t.flush()
	return nil
}

package bench

import (
	"fmt"

	"mudbscan/internal/core"
	"mudbscan/internal/dist"
)

// Ablations measures the design choices DESIGN.md §5 calls out, each as a
// pair (feature on vs off) on the MPAGD analogue:
//
//   - wndq-core identification (the paper's headline query saving),
//   - the 2ε micro-cluster creation deferral vs greedy creation,
//   - sampled vs exact median spatial partitioning.
func Ablations(cfg Config) error {
	cfg = cfg.withDefaults()
	s := specMPAGD
	pts := s.Points(cfg.Scale)
	t := newTable(cfg.Out)
	fmt.Fprintf(cfg.Out, "Ablations on %s (n=%d)\n", s.ScaledName(cfg.Scale), len(pts))
	t.row("Variant", "time(s)", "#MCs", "queries", "%saved")

	run := func(name string, opts core.Options) {
		var st *core.Stats
		d := timed(func() { _, st = core.Run(pts, s.Eps, s.MinPts, opts) })
		t.row(name, seconds(d), fmt.Sprint(st.NumMCs), fmt.Sprint(st.Queries), pct(st.QuerySavedPct()))
	}
	run("μDBSCAN (default)", core.Options{})
	run("no wndq-core identification", core.Options{DisableWndq: true})
	run("no 2ε creation deferral", core.Options{NoDeferral: true})
	t.flush()

	fmt.Fprintln(cfg.Out, "\nPartitioning median (8 ranks):")
	t2 := newTable(cfg.Out)
	t2.row("Median", "partition(s)", "total(s)")
	for _, v := range []struct {
		name   string
		sample int
	}{{"exact", 0}, {"sampled (512/rank)", 512}} {
		_, st, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, 8, dist.Options{SampleSize: v.sample, Seed: 1, Exec: dist.ExecSerial})
		if err != nil {
			return err
		}
		t2.row(v.name, seconds(st.Phases.Partition), seconds(st.Phases.Total()))
	}
	t2.flush()
	return nil
}

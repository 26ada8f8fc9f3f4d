package bench

import (
	"fmt"

	"mudbscan/internal/dist"
)

// wallclockRanks returns the rank sweep 1, 2, 4, ... up to max (always
// including max itself).
func wallclockRanks(max int) []int {
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	return append(out, max)
}

// Wallclock runs μDBSCAN-D's one pipeline under both in-process schedules
// across a rank sweep on the MPAGD8M analogue: the serial schedule's
// max-over-ranks total (the number behind Tables V–VIII) next to the
// concurrent schedule's real end-to-end wall-clock, with speedups of each
// relative to its own single-rank run. The simulated total is computation
// only — under either schedule Phases.Merge counts building and applying
// edges, not waiting for a slower rank's flags — so waiting shows up in the
// real column alone. On a host with fewer cores than ranks the real column
// degrades to time-sharing — the simulated column is the
// hardware-independent view, the real column is what this host delivers.
func Wallclock(cfg Config) error {
	cfg = cfg.withDefaults()
	s := specMPAGD8M
	pts := s.Points(cfg.Scale)
	ranks := wallclockRanks(minInt(cfg.Ranks, 16))

	fmt.Fprintf(cfg.Out, "μDBSCAN-D simulated vs real wall-clock, %s (n=%d)\n",
		s.ScaledName(cfg.Scale), len(pts))
	t := newTable(cfg.Out)
	t.row("Ranks", "sim total(s)", "sim speedup", "real wall(s)", "real speedup", "halo pts")
	var simBase, realBase float64
	for _, p := range ranks {
		_, sim, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, p, dist.Options{Seed: 1, Exec: dist.ExecSerial})
		if err != nil {
			return err
		}
		_, conc, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, p, dist.Options{Seed: 1, Exec: dist.ExecConcurrent})
		if err != nil {
			return err
		}
		simT := sim.Phases.Total()
		realT := conc.WallClock
		if simBase == 0 {
			simBase, realBase = float64(simT), float64(realT)
		}
		t.row(fmt.Sprint(p),
			seconds(simT), fmt.Sprintf("%.2fx", simBase/float64(simT)),
			seconds(realT), fmt.Sprintf("%.2fx", realBase/float64(realT)),
			fmt.Sprint(conc.HaloPoints))
	}
	t.flush()
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

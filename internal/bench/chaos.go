package bench

import (
	"fmt"
	"time"

	"mudbscan/internal/chaos"
	"mudbscan/internal/clustering"
	"mudbscan/internal/dist"
	"mudbscan/internal/mpi"
)

// Chaos measures what the reliability layer absorbs. One table at 8 ranks:
// a clean-network run, then the same workload through three deterministic
// fault plans, each with the counters of every absorbed fault class. A plan
// whose output is not byte-identical to the clean run's fails the
// experiment.
func Chaos(cfg Config) error {
	cfg = cfg.withDefaults()
	s := specMPAGD8M
	pts := s.Points(cfg.Scale)
	p := minInt(cfg.Ranks, 8)

	fmt.Fprintf(cfg.Out, "fault absorption at %d ranks, %s (n=%d; plans deliver eventually)\n",
		p, s.ScaledName(cfg.Scale), len(pts))
	t := newTable(cfg.Out)
	t.row("Plan", "wall(s)", "env bytes", "retx", "timeouts", "corrupt", "dup", "exact")
	var ref *clustering.Result
	for seed := int64(0); seed <= 3; seed++ {
		opts := dist.Options{Seed: 1}
		plan := "clean"
		if seed > 0 {
			plan = fmt.Sprintf("seed %d", seed)
			opts.Transport = chaos.New(chaos.Eventual(seed))
			opts.Retry = mpi.RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 10 * time.Millisecond, MaxAttempts: 14}
		}
		got, st, err := dist.MuDBSCAND(pts, s.Eps, s.MinPts, p, opts)
		if err != nil {
			return err
		}
		exact := "true"
		switch {
		case ref == nil:
			ref, exact = got, "ref"
		case !sameClustering(ref, got):
			return fmt.Errorf("chaos: %s: output differs from the clean run", plan)
		}
		t.row(plan, seconds(st.WallClock), fmt.Sprint(st.Comm.EnvelopeBytes),
			fmt.Sprint(st.Comm.Retransmits), fmt.Sprint(st.Comm.Timeouts),
			fmt.Sprint(st.Comm.CorruptDropped), fmt.Sprint(st.Comm.DupDropped), exact)
	}
	t.flush()
	return nil
}

// sameClustering reports byte identity of labels and core flags.
func sameClustering(a, b *clustering.Result) bool {
	if a == nil || b == nil || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] || a.Core[i] != b.Core[i] {
			return false
		}
	}
	return true
}

// Package dist implements μDBSCAN-D (§V of the paper) and the distributed
// baselines it is evaluated against (§VI-B): PDSDBSCAN-D, GridDBSCAN-D, an
// HPDBSCAN-style grid algorithm, and the approximate RP-DBSCAN.
//
// # One pipeline
//
// All exact algorithms are one rank pipeline, runRank, with the rank-local
// clustering algorithm as a parameter:
//
//	spatial kd partitioning (exact medians; sampled with a sample size)
//	→ ε-extended halo exchange
//	→ rank-local clustering (algorithm-specific) under distributed union
//	  rules: unions touching a non-core halo point are deferred as Pairs
//	→ merge: owners push exact core flags for the halo copies they
//	  exported; deferred pairs whose halo side turns out core become union
//	  edges; each owned point left unassigned joins its core neighbor of
//	  smallest global id (μDBSCAN-D leaves every owned non-core point
//	  here, so its borders are brute force's); local components and edges
//	  are combined into the global clustering.
//
// The merge needs no ε-neighborhood queries, matching §V-C. The rank-local
// clustering of μDBSCAN-D is core.RunLocal; that of the three exact
// baselines is internal/dbscan's union-find driver, the loop the sequential
// baselines run, with the halo copies as points it never queries.
//
// # Three schedules
//
// The paper runs on a 32-node MPI cluster. Here the same pipeline runs under
// one of three schedules, which differ only in whether compute sections pass
// a turnstile and where a rank's owned core flags and union edges go (its
// sinks). Under every schedule a rank runs its local clustering once, over
// its local points and the halo together, after the exchange has completed:
//
//   - ExecConcurrent (default): every rank is a goroutine over the mpi
//     runtime, no turnstile, and the sinks write straight into one shared
//     lock-free union-find. This schedule turns host cores into real
//     wall-clock speedup (Stats.WallClock).
//
//   - ExecSerial: the same goroutines behind a shared turnstile. All
//     communication is real, but a barrier holds every rank until all halos
//     have landed, and from there each compute section runs with the
//     turnstile held, one rank at a time — the standard methodology
//     for simulating distributed execution on a single machine. Reported
//     parallel time for a phase is the maximum over ranks, so speedup curves
//     reflect the algorithmic behaviour (including the superlinear effect of
//     smaller per-rank R-trees) rather than host core contention. The
//     Section VI tables use this schedule.
//
//   - Options.Remote: this process is one rank of a multi-process world over
//     real sockets; the sinks fill a payload that is gathered at rank 0.
//
// The turnstile cannot deadlock: it is held only around pure computation,
// never across a Recv, a Wait or a Barrier, so its holder always leaves it.
// The barrier is what makes the isolation true: without it a rank could be
// inside the turnstile while a slower one still encodes or decodes halo
// records on another core.
//
// All schedules produce byte-identical clusterings, and the conformance
// tests assert it. Each rank's local result is computed by the same code over
// the same point order and the exact flags land in the same halo slots; the
// global union structure is order-insensitive, and FromUnionLabels numbers
// clusters by first appearance in point order, independent of union-find
// representatives — so who applies which edge when cannot matter.
package dist

import (
	"errors"
	"fmt"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/unionfind"
)

// Exec selects the schedule the simulated ranks run under.
type Exec int

const (
	// ExecConcurrent (the default) lets every rank run the pipeline freely
	// in its own goroutine. This is the schedule that turns host cores into
	// real wall-clock speedup.
	ExecConcurrent Exec = iota
	// ExecSerial runs the same pipeline with the compute sections admitted
	// one rank at a time, each in isolation — the simulation methodology
	// behind the paper's Section VI tables, where per-phase maxima must
	// reflect algorithmic work rather than host core contention.
	ExecSerial
)

// Options tunes the distributed runs; the zero value means defaults.
type Options struct {
	// SampleSize is the per-rank sample size for median estimation during
	// partitioning (0 = exact medians).
	SampleSize int
	// Seed drives the sampling RNG.
	Seed int64
	// Core passes through to the local μDBSCAN (MuDBSCAND only).
	Core core.Options
	// Exec selects concurrent (default) or serial-simulation execution.
	// Both produce identical clusterings; only timing methodology differs.
	Exec Exec
	// Transport carries every frame of the in-process ranks (nil = direct
	// delivery). The mpi envelope protocol absorbs whatever it loses or
	// damages, collectives included, so the clustering is the same; see
	// internal/chaos for the deterministic fault injector.
	Transport mpi.Transport
	// Retry bounds the retransmission loop (zero value = the mpi defaults).
	// Its Budget() bounds how long a run with a dead rank can take to fail
	// with ErrRankLost.
	Retry mpi.RetryPolicy
	// Remote switches to multi-process execution: this process runs exactly
	// one rank and the rest of the world is reached through Remote.Transport
	// (see network.go). Exec and Transport are ignored — the remote runtime
	// runs over its own transport.
	Remote *Remote
}

// mpiOptions maps the communication-relevant options onto the runtime.
func (o Options) mpiOptions() mpi.Options {
	return mpi.Options{Transport: o.Transport, Retry: o.Retry}
}

// ErrRankLost is wrapped into the error returned when a rank exhausts the
// retry budget without acknowledgment — the graceful-degradation
// signal that a simulated peer died. Test with errors.Is(err, ErrRankLost);
// the accompanying partial *Stats still carry the communication counters up
// to the failure.
var ErrRankLost = errors.New("dist: rank lost")

// commFailure converts an mpi-layer error into the package's typed failure:
// rank loss wraps ErrRankLost and keeps the partial stats; anything else
// passes through unchanged with no stats.
func commFailure(err error, st *Stats, comm mpi.Stats) (*clustering.Result, *Stats, error) {
	var rl *mpi.RankLostError
	if errors.As(err, &rl) {
		st.Comm = comm
		return nil, st, fmt.Errorf("%w: rank %d unreachable after %d transmissions (declared by rank %d)",
			ErrRankLost, rl.Rank, rl.Attempts, rl.From)
	}
	return nil, nil, err
}

// PhaseTimes reports, per phase, the maximum wall-clock time any rank spent
// in it — the quantities behind Tables VII and VIII.
//
// Partition and HaloExchange are communication, which every schedule runs
// on all ranks at once, so on a host with fewer cores than ranks their
// wall-clock is inflated by time-sharing; their true cost in the simulation
// is the communication volume (Stats.Comm, Stats.MergeBytes). The other
// phases are computation only — Merge is the time spent building and
// applying edges, not the time spent waiting for a slower rank's flags —
// and under ExecSerial they are contention-free as well. The four local
// steps are the rank-local run's own StepTimes.
type PhaseTimes struct {
	Partition    time.Duration // excluded from Total (offline, §V-D)
	HaloExchange time.Duration // excluded from Total (see above)
	core.StepTimes
	Merge time.Duration
}

// Total returns the simulated parallel run time: the maximum over ranks of
// the compute phases plus the merge. Partitioning is excluded as offline
// (the paper's accounting, §V-D); the halo-exchange wall time is excluded
// because it is contention-inflated in simulation (its cost is reported as
// bytes instead).
func (p PhaseTimes) Total() time.Duration {
	return p.StepTimes.Total() + p.Merge
}

// Stats aggregates a distributed run.
type Stats struct {
	Ranks  int
	Phases PhaseTimes
	// Queries/QueriesSaved/NumMCs are summed over ranks.
	Queries      int64
	QueriesSaved int64
	NumMCs       int64
	// HaloPoints is the total number of halo copies exchanged.
	HaloPoints int64
	// PairsDeferred is the total number of deferred cross-partition links.
	PairsDeferred int64
	// Comm is what the mpi runtime carried, under every schedule: the
	// partition and halo collectives and the merge phase's flag messages
	// (one byte per halo copy, so those bytes are in MergeBytes too). In a
	// remote world it is this process's share only.
	Comm mpi.Stats
	// MergeBytes is the merge-phase traffic in bytes: the flags, plus 16
	// bytes per union edge, accounted analytically because only the remote
	// schedule ships edges.
	MergeBytes int64
	// WallClock is the real end-to-end elapsed time of the run. Under
	// ExecConcurrent it is the quantity of interest (all ranks running
	// against the host's cores at once); under ExecSerial it includes every
	// rank's wait at the turnstile and is reported only for completeness —
	// compare Phases.Total() instead.
	WallClock time.Duration
}

// QuerySavedPct returns the percentage of potential queries saved.
func (s *Stats) QuerySavedPct() float64 {
	total := s.Queries + s.QueriesSaved
	if total == 0 {
		return 0
	}
	return 100 * float64(s.QueriesSaved) / float64(total)
}

// localFn runs one rank's local clustering over its one block of points:
// the first localCount rows are owned by the rank, the rest are the halo
// copies it received. It reads the block and does not write it.
type localFn func(set *geom.PointSet, eps float64, minPts, localCount int) *core.LocalResult

// fold adds one rank's report: counters sum, phase times take the maximum.
func (st *Stats) fold(o rankOut) {
	st.Queries += o.queries
	st.QueriesSaved += o.queriesSaved
	st.NumMCs += o.numMCs
	st.HaloPoints += o.haloPoints
	st.PairsDeferred += o.pairsDeferred
	st.MergeBytes += o.mergeBytes
	ph, op := &st.Phases, o.phases
	ph.Partition = max(ph.Partition, op.Partition)
	ph.HaloExchange = max(ph.HaloExchange, op.HaloExchange)
	ph.TreeConstruction = max(ph.TreeConstruction, op.TreeConstruction)
	ph.FindingReachable = max(ph.FindingReachable, op.FindingReachable)
	ph.Clustering = max(ph.Clustering, op.Clustering)
	ph.PostProcessing = max(ph.PostProcessing, op.PostProcessing)
	ph.Merge = max(ph.Merge, op.Merge)
}

// runDistributed runs the pipeline on p ranks under the schedule opts names
// and returns the exact global clustering in original point order.
func runDistributed(pts []geom.Point, eps float64, minPts, p int, opts Options, algo localFn) (*clustering.Result, *Stats, error) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{Ranks: p}, nil
	}
	wallStart := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	st := &Stats{Ranks: p}
	world := runInProcess
	if opts.Remote != nil {
		world = runNetworked
	}
	res, comm, err := world(pts, eps, minPts, p, opts, algo, st)
	if err != nil {
		return commFailure(err, st, comm)
	}
	st.Comm = comm
	st.WallClock = time.Since(wallStart)
	return res, st, nil
}

// runInProcess runs all p ranks as goroutines of this process, their sinks
// writing straight into one shared union structure, and folds their reports
// into st. ExecSerial is the same world behind a shared turnstile.
func runInProcess(pts []geom.Point, eps float64, minPts, p int, opts Options, algo localFn, st *Stats) (*clustering.Result, mpi.Stats, error) {
	var turn *turnstile
	if opts.Exec == ExecSerial {
		turn = &turnstile{}
	}
	guf := unionfind.NewConcurrent(len(pts))
	// globalCore is written at disjoint indices: every point is owned by
	// exactly one rank.
	globalCore := make([]bool, len(pts))
	own := func(gids []int64, isCore []bool) {
		for i, g := range gids {
			globalCore[g] = isCore[i]
		}
	}
	union := func(edges [][2]int64) {
		for _, e := range edges {
			guf.Union(int(e[0]), int(e[1]))
		}
	}
	// Each rank writes only its own slot; the mpi join orders the reads.
	outs := make([]rankOut, p)
	comm, err := mpi.RunWithOptions(p, opts.mpiOptions(), func(c *mpi.Comm) error {
		var err error
		outs[c.Rank()], err = runRank(c, pts, eps, minPts, opts, algo, turn, own, union)
		return err
	})
	if err != nil {
		return nil, comm, err
	}
	for _, o := range outs {
		st.fold(o)
	}
	return globalResult(guf, globalCore), comm, nil
}

// globalResult reads the clustering off the merged union structure.
func globalResult(guf *unionfind.Concurrent, globalCore []bool) *clustering.Result {
	comp := make([]int, len(globalCore))
	for i := range comp {
		comp[i] = guf.Find(i)
	}
	return clustering.FromUnionLabels(comp, globalCore)
}

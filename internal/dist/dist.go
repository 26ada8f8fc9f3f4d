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
//	→ rank-local clustering (algorithm-specific), which swaps exact core
//	  flags with the owners of its halo copies once its own are exact
//	→ merge: local components become global union edges, which every
//	  rank but 0 ships to rank 0, and rank 0 applies them all (gather).
//
// The merge needs no ε-neighborhood queries, matching §V-C, and it is the
// same for every algorithm: each rank's components, which already hold every
// link and owned border the rank owes. The rank-local clustering of
// μDBSCAN-D is core.RunLocal, which swaps between its steps 3 and 4. That of
// the three exact baselines is internal/dbscan's union-find driver, the loop
// the sequential baselines run, with the halo copies as points it never
// queries; it swaps at its end and then settles the links it left waiting
// (dbscan.HaloResult.Settle).
//
// # Three schedules
//
// The paper runs on a 32-node MPI cluster. Here the same pipeline runs under
// one of three schedules, which differ only in whether compute sections pass
// a turnstile and in the mpi world the ranks live in. Under every schedule a
// rank runs its local clustering once, over its local points and the halo
// together, after the exchange has completed, and the merge is one gather:
// each rank but 0 sends its contribution to rank 0, which applies its own
// and then each peer's into one union-find.
//
//   - ExecConcurrent (default): every rank is a goroutine over the mpi
//     runtime and there is no turnstile. This schedule turns host cores into
//     real wall-clock speedup (Stats.WallClock).
//
//   - ExecSerial: the same goroutines behind a shared turnstile. All
//     communication is real, but a barrier holds every rank until all halos
//     have landed, and from there each compute section — local clustering,
//     merge edges, a peer's encode of its payload, rank 0's decode and apply
//     of each contribution — runs with the turnstile held, one rank at a
//     time: the standard methodology for simulating distributed execution on
//     a single machine. Reported parallel time for a phase is the maximum
//     over ranks, so speedup curves reflect the algorithmic behaviour
//     (including the superlinear effect of smaller per-rank R-trees) rather
//     than host core contention. The Section VI tables use this schedule.
//
//   - Options.Remote: this process is one rank of a multi-process world over
//     real sockets, with no turnstile.
//
// The turnstile cannot deadlock: it is held only around computation, never
// across a Recv, a Wait or a Barrier. The flag swap steps out of it
// (turnstile.outside), so a rank blocked on a peer's flags never holds it
// and every holder either finishes or steps out. The barrier is what makes the isolation true: without it
// a rank could be inside the turnstile while a slower one still encodes or
// decodes halo records on another core.
//
// All schedules produce byte-identical clusterings, and the conformance
// tests assert it. Each rank's local result is computed by the same code over
// the same point order and the exact flags land in the same halo slots; rank
// 0 applies the same contributions in the same order, and FromUnionLabels
// numbers clusters by first appearance in point order, independent of
// union-find representatives.
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
// phases are computation only — the time a rank spends in the flag swap
// waiting for a slower rank's flags is in none of them, and Merge is the
// time spent building edges, encoding a peer's payload and, on rank 0,
// decoding and applying every rank's contribution, but not waiting for them
// — and under ExecSerial they are contention-free as well. The four local
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
	// Comm is what the mpi runtime carried, under every schedule: the
	// partition and halo collectives, the flag swap's messages and the
	// merge gather's payloads. It already holds everything MergeBytes
	// counts, so the two are not to be added. In a remote world it is this
	// process's share only.
	Comm mpi.Stats
	// MergeBytes is the merge-phase traffic the algorithm needs, in bytes:
	// the flags, plus 16 bytes per union edge, accounted analytically. The
	// gather ships the edges in a payload that also carries each rank's
	// owned ids, core flags and report; Comm counts that payload.
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
// copies it received. It reads the block and does not write it, and calls
// halo.Swap exactly once, when its owned rows' core flags are exact, and
// returns components that hold every link and owned border the rank owes.
type localFn func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult

// fold adds one rank's report: counters sum, phase times take the maximum.
func (st *Stats) fold(o rankOut) {
	st.Queries += o.queries
	st.QueriesSaved += o.queriesSaved
	st.NumMCs += o.numMCs
	st.HaloPoints += o.haloPoints
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
// and returns the exact global clustering in original point order. Every
// schedule runs the same per-rank function: runRank, after which ranks other
// than 0 ship their mergeContribution to rank 0, and rank 0 gathers them all.
// The schedules differ in the turnstile (ExecSerial) and in the world: p
// goroutines of this process, or, with opts.Remote, this process as one rank
// of a world over its transport. In a remote world only rank 0 returns a
// Result and aggregates the ranks' reports; every process's Comm is its own
// share, since no process sees another's byte counts.
func runDistributed(pts []geom.Point, eps float64, minPts, p int, opts Options, algo localFn) (*clustering.Result, *Stats, error) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{Ranks: p}, nil
	}
	wallStart := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	st := &Stats{Ranks: p}
	var turn *turnstile
	if opts.Exec == ExecSerial && opts.Remote == nil {
		turn = &turnstile{}
	}
	// Only rank 0 writes res and st; the mpi join orders the reads.
	var res *clustering.Result
	rank := func(c *mpi.Comm) error {
		contrib, err := runRank(c, pts, eps, minPts, opts, algo, turn)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			c.Send(0, mergeTag, contrib.payload(turn))
			return nil
		}
		res, err = gather(c, contrib, len(pts), turn, st)
		return err
	}
	var comm mpi.Stats
	var err error
	if r := opts.Remote; r != nil {
		comm, err = mpi.RunRemote(mpi.RemoteOptions{
			Rank: r.Rank, Size: p, Transport: r.Transport, Retry: opts.Retry, Linger: r.Linger,
		}, rank)
	} else {
		comm, err = mpi.RunWithOptions(p, mpi.Options{Transport: opts.Transport, Retry: opts.Retry}, rank)
	}
	if err != nil {
		return commFailure(err, st, comm)
	}
	st.Comm = comm
	st.WallClock = time.Since(wallStart)
	return res, st, nil
}

// gather is rank 0's half of the merge, the one merge of every schedule: it
// applies its own contribution and then each peer's, in rank order, into one
// union-find, refusing any point id outside [0, n), and folds every rank's
// report into st. Its waits for the peers' payloads are outside the
// turnstile and every timer; each decode and apply is a compute section,
// and their time is added to rank 0's Merge.
func gather(c *mpi.Comm, own mergeContribution, n int, turn *turnstile, st *Stats) (*clustering.Result, error) {
	uf := unionfind.New(n)
	isCore := make([]bool, n)
	apply := func(r int, cb mergeContribution) error {
		for i, gid := range cb.gids {
			if gid < 0 || gid >= int64(n) {
				return fmt.Errorf("dist: rank %d claims out-of-range point id %d", r, gid)
			}
			isCore[gid] = cb.core[i]
		}
		for _, e := range cb.edges {
			if e[0] < 0 || e[0] >= int64(n) || e[1] < 0 || e[1] >= int64(n) {
				return fmt.Errorf("dist: rank %d sent out-of-range union edge (%d, %d)", r, e[0], e[1])
			}
			uf.Union(int(e[0]), int(e[1]))
		}
		return nil
	}
	var err error
	merge := turn.do(func() { err = apply(0, own) })
	for r := 1; r < c.Size() && err == nil; r++ {
		payload := c.Recv(r, mergeTag)
		merge += turn.do(func() {
			cb, ok := decodeContribution(mpi.DecodeInt64s(payload))
			if !ok {
				err = fmt.Errorf("dist: rank 0 got a malformed merge payload from rank %d", r)
				return
			}
			if err = apply(r, cb); err == nil {
				st.fold(cb.out)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	own.out.phases.Merge += merge
	st.fold(own.out)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = uf.Find(i)
	}
	return clustering.FromUnionLabels(comp, isCore), nil
}

package dist

import (
	"fmt"
	"sync"
	"time"

	"mudbscan/internal/core"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/partition"
)

// flagTag carries the one exchange of exact core flags for halo copies;
// distinct from every tag the partition and halo phases use.
//
//mulint:wire mpi-tag
const flagTag = -1081

// turnstile is the serial schedule's compute gate: do admits one rank at a
// time. A nil turnstile admits everyone. The functions passed to do only
// compute, but for the flag swap inside a rank-local run, which blocks in mpi
// and so runs outside: a rank inside the turnstile always comes out, and a
// rank waiting for it is waiting only for that.
type turnstile struct{ mu sync.Mutex }

// do runs fn, alone if t is non-nil, and returns how long fn took.
func (t *turnstile) do(fn func()) time.Duration {
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return timed(fn)
}

// outside runs fn, called from inside do, with the turnstile released: the
// holder steps out to block in mpi, and waits its turn again to come back.
func (t *turnstile) outside(fn func()) {
	if t != nil {
		t.mu.Unlock()
		defer t.mu.Lock()
	}
	fn()
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	fn()
	return time.Since(t0)
}

// mergeStatFields is the number of int64 stat slots in a merge payload.
const mergeStatFields = 12

// rankOut is what one rank reports of its trip through runRank: its own
// phase times and counters. Stats.fold combines them over ranks.
type rankOut struct {
	phases                        PhaseTimes
	queries, queriesSaved, numMCs int64
	haloPoints, mergeBytes        int64
}

// encode lays rankOut out in the merge payload's slot order; decodeRankOut
// is its inverse. The order is wire format: ranks of one world must agree.
func (o rankOut) encode() [mergeStatFields]int64 {
	ph := o.phases
	return [mergeStatFields]int64{
		o.queries, o.queriesSaved, o.numMCs, o.haloPoints, o.mergeBytes,
		int64(ph.Partition), int64(ph.HaloExchange),
		int64(ph.TreeConstruction), int64(ph.FindingReachable), int64(ph.Clustering), int64(ph.PostProcessing),
		int64(ph.Merge),
	}
}

func decodeRankOut(s [mergeStatFields]int64) rankOut {
	return rankOut{
		queries: s[0], queriesSaved: s[1], numMCs: s[2], haloPoints: s[3], mergeBytes: s[4],
		phases: PhaseTimes{
			Partition: time.Duration(s[5]), HaloExchange: time.Duration(s[6]),
			StepTimes: core.StepTimes{
				TreeConstruction: time.Duration(s[7]), FindingReachable: time.Duration(s[8]),
				Clustering: time.Duration(s[9]), PostProcessing: time.Duration(s[10]),
			},
			Merge: time.Duration(s[11]),
		},
	}
}

// runRank is one rank's trip through Algorithm 9, the only spelling of it:
// kd partitioning, ε-halo exchange, rank-local clustering with the one
// exchange of exact halo core flags inside it, and the merge section that
// expresses the local components as the rank's mergeContribution, which
// every schedule gathers at rank 0 (gather). A schedule varies its
// turnstile, and nothing else: nil lets every rank compute at once; a shared
// turnstile (the serial simulation) holds every rank at a barrier until all
// halos have landed, and then runs each compute section — local clustering,
// merge edges, a peer's encode of its payload, rank 0's decode and apply —
// alone inside it, stepping out for the flag swap.
func runRank(c *mpi.Comm, pts []geom.Point, eps float64, minPts int, opts Options, algo localFn, turn *turnstile) (mergeContribution, error) {
	rank, p := c.Rank(), c.Size()
	var out rankOut

	// Phase 1: kd partitioning (collective).
	t0 := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ids, rows := partition.Scatter(rank, p, pts)
	part, err := partition.KD(c, ids, rows, opts.SampleSize, opts.Seed)
	if err != nil {
		return mergeContribution{}, err
	}
	out.phases.Partition = time.Since(t0)

	// Phase 2: the ε-extended halo exchange. Halo rows are decoded onto the
	// end of the rank's own block, in source-rank order, then send order.
	gids, set, localCount := part.IDs, part.Rows, len(part.IDs)
	t0 = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	bufs, sentTo := partition.Halo(part, eps, rank)
	recv := c.Alltoall(bufs)
	haloFrom := make([]int, p)
	for src := 0; src < p; src++ {
		if src != rank {
			gids, haloFrom[src] = partition.DecodeRecords(recv[src], gids, set)
		}
	}
	out.phases.HaloExchange = time.Since(t0)
	out.haloPoints = int64(len(gids) - localCount)
	if turn != nil {
		// Isolation: no rank enters the turnstile while another is still
		// encoding, sending or decoding halo records beside it.
		c.Barrier()
	}

	// The flag swap, which the local run calls once, when its owned rows'
	// core flags are exact: one byte to each peer per row exported there, in
	// sentTo's order, and one back per halo copy, in the order the copies were
	// decoded. It steps out of the turnstile, and its wait for a slower rank's
	// flags is that rank's local time, in no phase of this rank's.
	var swapErr error
	swap := func(isCore []bool) {
		turn.outside(func() {
			for dst := 0; dst < p; dst++ {
				if dst == rank {
					continue
				}
				fl := make([]byte, len(sentTo[dst]))
				for k, li := range sentTo[dst] {
					if isCore[li] {
						fl[k] = 1
					}
				}
				out.mergeBytes += int64(len(fl))
				c.Isend(dst, flagTag, fl)
			}
			cur := localCount
			for src := 0; src < p; src++ {
				if src == rank {
					continue
				}
				fl := c.Recv(src, flagTag)
				if len(fl) != haloFrom[src] {
					swapErr = fmt.Errorf("dist: rank %d got %d flags from %d, want %d", rank, len(fl), src, haloFrom[src])
					return
				}
				for _, b := range fl {
					isCore[cur] = b != 0
					cur++
				}
			}
		})
	}

	// Phase 3: rank-local clustering.
	var lr *core.LocalResult
	turn.do(func() {
		if localCount == 0 {
			// A rank that owns no points may still hold halo copies (extreme
			// skew): nothing is core, every point is its own component.
			lr = inertLocalResult(len(gids))
			swap(lr.Core)
			return
		}
		lr = algo(set, eps, minPts, localCount, core.Halo{IDs: gids, Swap: swap})
	})
	if swapErr != nil {
		return mergeContribution{}, swapErr
	}
	out.phases.StepTimes = lr.Stats.Steps
	out.queries = int64(lr.Stats.Queries)
	out.queriesSaved = int64(lr.Stats.QueriesSaved)
	out.numMCs = int64(lr.Stats.NumMCs)

	// Phase 4: merge. The local run settled every link and owned border
	// with the exact flags, so the rank's share of the merge is one compute
	// section: its owned flags, and its local components as global edges.
	var m mergeContribution
	out.phases.Merge = turn.do(func() {
		m = mergeContribution{localCount: localCount, gids: gids[:localCount], core: lr.Core[:localCount],
			edges: componentEdges(lr, gids)}
		out.mergeBytes += int64(len(m.edges) * 16)
	})
	m.out = out
	return m, nil
}

// inertLocalResult is the local state of a rank that owns no points:
// nothing is core, every point is its own component.
func inertLocalResult(n int) *core.LocalResult {
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	return &core.LocalResult{Core: make([]bool, n), Comp: comp, Stats: &core.Stats{}}
}

// componentEdges expresses the rank-local union-find components as global-id
// edges.
func componentEdges(lr *core.LocalResult, gids []int64) [][2]int64 {
	var edges [][2]int64
	for i := range gids {
		if r := lr.Comp[i]; int32(i) != r {
			edges = append(edges, [2]int64{gids[i], gids[r]})
		}
	}
	return edges
}

package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mudbscan/internal/core"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/partition"
)

// flagTag carries the merge phase's exact-core flag pushes; distinct from
// every tag the partition and halo phases use.
//
//mulint:wire mpi-tag
const flagTag = -1081

// turnstile is the serial schedule's compute gate: do admits one rank at a
// time. A nil turnstile admits everyone. It is never held across a blocking
// mpi call — the functions passed to do only compute — so a rank inside it
// always comes out, and a rank waiting for it is waiting only for that.
type turnstile struct{ mu sync.Mutex }

// do runs fn, alone if t is non-nil, and returns how long fn took.
func (t *turnstile) do(fn func()) time.Duration {
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return timed(fn)
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	fn()
	return time.Since(t0)
}

// mergeStatFields is the number of int64 stat slots in a merge payload.
const mergeStatFields = 13

// rankOut is what one rank reports of its trip through runRank: its own
// phase times and counters. Stats.fold combines them over ranks.
type rankOut struct {
	phases                                PhaseTimes
	queries, queriesSaved, numMCs         int64
	haloPoints, pairsDeferred, mergeBytes int64
}

// encode lays rankOut out in the merge payload's slot order; decodeRankOut
// is its inverse. The order is wire format: ranks of one world must agree.
func (o rankOut) encode() [mergeStatFields]int64 {
	ph := o.phases
	return [mergeStatFields]int64{
		o.queries, o.queriesSaved, o.numMCs, o.haloPoints, o.pairsDeferred, o.mergeBytes,
		int64(ph.Partition), int64(ph.HaloExchange),
		int64(ph.TreeConstruction), int64(ph.FindingReachable), int64(ph.Clustering), int64(ph.PostProcessing),
		int64(ph.Merge),
	}
}

func decodeRankOut(s [mergeStatFields]int64) rankOut {
	return rankOut{
		queries: s[0], queriesSaved: s[1], numMCs: s[2], haloPoints: s[3], pairsDeferred: s[4], mergeBytes: s[5],
		phases: PhaseTimes{
			Partition: time.Duration(s[6]), HaloExchange: time.Duration(s[7]),
			StepTimes: core.StepTimes{
				TreeConstruction: time.Duration(s[8]), FindingReachable: time.Duration(s[9]),
				Clustering: time.Duration(s[10]), PostProcessing: time.Duration(s[11]),
			},
			Merge: time.Duration(s[12]),
		},
	}
}

// runRank is one rank's trip through Algorithm 9, the only spelling of it:
// kd partitioning, ε-halo exchange, rank-local clustering, query-free merge.
// A schedule varies its turnstile and its two sinks, and nothing else:
//
//   - turn: nil lets every rank compute at once; a shared turnstile (the
//     serial simulation) holds every rank at a barrier until all halos have
//     landed, and then runs each compute section — local clustering,
//     component edges, deferred edges — alone inside it.
//   - own receives the rank's owned global ids with their exact core flags.
//   - union receives the rank's union edges, in two batches.
//
// The sinks are called inside the turnstile, so under the serial schedule
// the time they take is part of the isolated merge time.
func runRank(c *mpi.Comm, pts []geom.Point, eps float64, minPts int, opts Options, algo localFn,
	turn *turnstile, own func(gids []int64, isCore []bool), union func(edges [][2]int64)) (rankOut, error) {
	rank, p := c.Rank(), c.Size()
	var out rankOut

	// Phase 1: kd partitioning (collective).
	t0 := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ids, rows := partition.Scatter(rank, p, pts)
	part, err := partition.KD(c, ids, rows, opts.SampleSize, opts.Seed)
	if err != nil {
		return out, err
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

	// Phase 3: rank-local clustering.
	var lr *core.LocalResult
	turn.do(func() {
		if localCount == 0 {
			// A rank that owns no points may still hold halo copies (extreme
			// skew): nothing is core, every point is its own component.
			lr = inertLocalResult(len(gids))
			return
		}
		lr = algo(set, eps, minPts, localCount)
	})
	out.phases.StepTimes = lr.Stats.Steps
	out.queries = int64(lr.Stats.Queries)
	out.queriesSaved = int64(lr.Stats.QueriesSaved)
	out.numMCs = int64(lr.Stats.NumMCs)
	out.pairsDeferred = int64(len(lr.Pairs))

	// Phase 4: merge. Push the exact core flag of every exported halo copy,
	// and do the part of the merge that does not need the peers' flags while
	// they fly. Merge time is the two compute sections only: time blocked in
	// Recv on a slower rank's flags is that rank's local time, not merge.
	for dst := 0; dst < p; dst++ {
		if dst == rank {
			continue
		}
		fl := make([]byte, len(sentTo[dst]))
		for k, li := range sentTo[dst] {
			if lr.Core[li] {
				fl[k] = 1
			}
		}
		out.mergeBytes += int64(len(fl))
		c.Isend(dst, flagTag, fl)
	}
	out.phases.Merge = turn.do(func() {
		own(gids[:localCount], lr.Core[:localCount])
		edges := componentEdges(lr, gids)
		out.mergeBytes += int64(len(edges) * 16)
		union(edges)
	})

	exact := make([]bool, len(gids))
	copy(exact, lr.Core)
	cur := localCount
	for src := 0; src < p; src++ {
		if src == rank {
			continue
		}
		fl := c.Recv(src, flagTag)
		if len(fl) != haloFrom[src] {
			return out, fmt.Errorf("dist: rank %d got %d flags from %d, want %d", rank, len(fl), src, haloFrom[src])
		}
		for _, b := range fl {
			if b != 0 {
				exact[cur] = true
			}
			cur++
		}
	}
	out.phases.Merge += turn.do(func() {
		edges := deferredEdges(lr, gids, exact)
		out.mergeBytes += int64(len(edges) * 16)
		union(edges)
	})
	return out, nil
}

// inertLocalResult is the local state of a rank that owns no points:
// nothing is core, every point is its own component.
func inertLocalResult(n int) *core.LocalResult {
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	return &core.LocalResult{
		Core:      make([]bool, n),
		Comp:      comp,
		NoiseNbhd: map[int32][]int32{},
		Stats:     &core.Stats{},
	}
}

// componentEdges expresses the rank-local union-find components as global-id
// edges. It needs no exact halo flags, so it runs while the flag messages
// are still in flight.
func componentEdges(lr *core.LocalResult, gids []int64) [][2]int64 {
	var edges [][2]int64
	for i := range gids {
		if r := lr.Comp[i]; int32(i) != r {
			edges = append(edges, [2]int64{gids[i], gids[r]})
		}
	}
	return edges
}

// deferredEdges resolves the parts of the merge that depend on the exact
// halo core flags: deferred pairs whose halo side turns out core, and the
// border pass, which gives every point left in NoiseNbhd to its core
// neighbor of smallest global id — dbscan.Brute's rule, which an owned
// point's complete neighborhood decides. No neighborhood queries are needed
// (§V-C).
func deferredEdges(lr *core.LocalResult, gids []int64, exactCore []bool) [][2]int64 {
	var edges [][2]int64
	for _, pr := range lr.Pairs {
		if exactCore[pr.B] {
			edges = append(edges, [2]int64{gids[pr.A], gids[pr.B]})
		}
	}
	noiseIDs := make([]int32, 0, len(lr.NoiseNbhd))
	for id := range lr.NoiseNbhd {
		noiseIDs = append(noiseIDs, id)
	}
	sort.Slice(noiseIDs, func(a, b int) bool { return noiseIDs[a] < noiseIDs[b] })
	for _, id := range noiseIDs {
		best := int64(-1)
		for _, q := range lr.NoiseNbhd[id] {
			if exactCore[q] && (best < 0 || gids[q] < best) {
				best = gids[q]
			}
		}
		if best >= 0 {
			edges = append(edges, [2]int64{best, gids[id]})
		}
	}
	return edges
}

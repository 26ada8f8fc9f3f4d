package dist

import (
	"fmt"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/unionfind"
)

// mergeTag carries each rank's merge contribution (core flags, union edges,
// stats) to rank 0 in the remote schedule's gather-to-root merge.
//
//mulint:wire mpi-tag
const mergeTag = -1085

// Remote configures multi-process execution: this process runs exactly one
// rank of the world, and the other ranks — separate OS processes started by
// the launcher or by hand — are reached through the transport. Every process
// must call the same entry point with the same points, parameters and
// options (standard SPMD discipline); only rank 0 assembles and returns the
// clustering.
type Remote struct {
	// Rank is this process's rank.
	Rank int
	// Transport connects the rank processes (e.g. internal/mpi/nettrans).
	Transport mpi.RemoteTransport
	// Linger passes through to mpi.RemoteOptions.Linger; needed only over
	// lossy transports (fault-injection tests), zero for real sockets.
	Linger time.Duration
}

// runNetworked runs the pipeline as one rank of a multi-process world. A
// union-find cannot be shared across processes, so the rank's sinks fill a
// mergeContribution (owned global ids, exact core flags, union edges, its
// rankOut) that is shipped to rank 0, which applies all of them and folds
// the reports into st. The loopback conformance suite asserts the labels
// byte-identical to ExecConcurrent's.
//
// On ranks other than 0 the returned Result is nil and st stays empty.
// Rank 0's st aggregates all ranks; the returned Comm is this process's own,
// since no process sees another's byte counts.
func runNetworked(pts []geom.Point, eps float64, minPts, p int, opts Options, algo localFn, st *Stats) (*clustering.Result, mpi.Stats, error) {
	n := len(pts)
	var result *clustering.Result
	comm, err := mpi.RunRemote(mpi.RemoteOptions{
		Rank:      opts.Remote.Rank,
		Size:      p,
		Transport: opts.Remote.Transport,
		Retry:     opts.Retry,
		Linger:    opts.Remote.Linger,
	}, func(c *mpi.Comm) error {
		var contrib mergeContribution
		own := func(gids []int64, isCore []bool) {
			contrib.localCount, contrib.gids, contrib.core = len(gids), gids, isCore
		}
		union := func(edges [][2]int64) { contrib.edges = append(contrib.edges, edges...) }
		var err error
		contrib.out, err = runRank(c, pts, eps, minPts, opts, algo, nil, own, union)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			c.Send(0, mergeTag, mpi.EncodeInt64s(contrib.encode()))
			return nil
		}

		// Rank 0: apply every rank's contribution, in rank order.
		guf := unionfind.NewConcurrent(n)
		globalCore := make([]bool, n)
		for r := 0; r < p; r++ {
			cb := contrib
			if r != 0 {
				var ok bool
				cb, ok = decodeContribution(mpi.DecodeInt64s(c.Recv(r, mergeTag)))
				if !ok {
					return fmt.Errorf("dist: rank 0 got a malformed merge payload from rank %d", r)
				}
			}
			for i := 0; i < cb.localCount; i++ {
				gid := cb.gids[i]
				if gid < 0 || gid >= int64(n) {
					return fmt.Errorf("dist: rank %d claims out-of-range point id %d", r, gid)
				}
				globalCore[gid] = cb.core[i]
			}
			for _, e := range cb.edges {
				if e[0] < 0 || e[0] >= int64(n) || e[1] < 0 || e[1] >= int64(n) {
					return fmt.Errorf("dist: rank %d sent out-of-range union edge (%d, %d)", r, e[0], e[1])
				}
				guf.Union(int(e[0]), int(e[1]))
			}
			st.fold(cb.out)
		}
		result = globalResult(guf, globalCore)
		return nil
	})
	return result, comm, err
}

// mergeContribution is one rank's input to the gather-to-root merge.
type mergeContribution struct {
	localCount int
	gids       []int64
	core       []bool
	edges      [][2]int64
	out        rankOut
}

// encode lays the contribution out as int64s:
//
//	[0]  localCount
//	[1]  edge count
//	[2:2+mergeStatFields) rankOut.encode()
//	then localCount gids, ceil(localCount/64) packed core-flag words,
//	and 2 int64s per edge.
func (m mergeContribution) encode() []int64 {
	words := (m.localCount + 63) / 64
	out := make([]int64, 0, 2+mergeStatFields+m.localCount+words+2*len(m.edges))
	out = append(out, int64(m.localCount), int64(len(m.edges)))
	stats := m.out.encode()
	out = append(out, stats[:]...)
	out = append(out, m.gids...)
	for w := 0; w < words; w++ {
		var bits uint64
		for b := 0; b < 64 && w*64+b < m.localCount; b++ {
			if m.core[w*64+b] {
				bits |= 1 << b
			}
		}
		out = append(out, int64(bits))
	}
	for _, e := range m.edges {
		out = append(out, e[0], e[1])
	}
	return out
}

// decodeContribution unpacks encode's layout, rejecting any length or count
// mismatch instead of panicking on a damaged or truncated payload.
func decodeContribution(v []int64) (mergeContribution, bool) {
	var m mergeContribution
	if len(v) < 2+mergeStatFields {
		return m, false
	}
	// Bound both counts by the payload before adding them up: unbounded,
	// the sum can wrap around int64 to exactly the payload's length.
	lc, ne, body := v[0], v[1], int64(len(v)-2-mergeStatFields)
	if lc < 0 || ne < 0 || lc > body || ne > body {
		return m, false
	}
	words := (lc + 63) / 64
	if body != lc+words+2*ne {
		return m, false
	}
	m.localCount = int(lc)
	m.out = decodeRankOut([mergeStatFields]int64(v[2 : 2+mergeStatFields]))
	rest := v[2+mergeStatFields:]
	m.gids = rest[:lc]
	m.core = make([]bool, lc)
	for i := range m.core {
		m.core[i] = rest[lc+int64(i)/64]&(1<<(i%64)) != 0
	}
	edgeBase := lc + words
	m.edges = make([][2]int64, ne)
	for i := range m.edges {
		m.edges[i] = [2]int64{rest[edgeBase+2*int64(i)], rest[edgeBase+2*int64(i)+1]}
	}
	return m, true
}

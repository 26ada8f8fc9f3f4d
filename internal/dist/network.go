package dist

import (
	"time"

	"mudbscan/internal/mpi"
)

// mergeTag carries each rank's merge contribution (core flags, union edges,
// stats) to rank 0, whose gather applies them, under every schedule.
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

// mergeContribution is one rank's input to the gather-to-root merge: its
// owned global ids with their exact core flags, its local components as
// union edges, and its report.
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

// payload is a peer's merge payload for rank 0, encoded inside one compute
// section whose time the report it carries adds to Merge: the body is
// encoded under the timer, and the report's words, which must hold that
// time, are written over their slots [2, 2+mergeStatFields) after it stops.
func (m mergeContribution) payload(turn *turnstile) []byte {
	var b []byte
	m.out.phases.Merge += turn.do(func() { b = mpi.EncodeInt64s(m.encode()) })
	stats := m.out.encode()
	copy(b[8*2:], mpi.EncodeInt64s(stats[:]))
	return b
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

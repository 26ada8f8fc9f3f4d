// Package partition implements the spatial data distribution phase of
// μDBSCAN-D (§V-A of the paper): recursive kd-style splitting of the rank
// space at exact medians by default, or at medians estimated from per-rank
// samples when a sample size is given (mudbscan.WithSampleSize), plus the
// selection of the ε-extended halo each rank sends before local clustering
// (§V-B).
//
// A rank carries its points as ids plus one row-major block: row i of the
// block is point ids[i] of the original dataset. The wire form of such
// points is the record codec (EncodeRecords, DecodeRecords).
//
// KD runs collectively: every rank of the communicator must call it with
// the same parameters, in the same order.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"mudbscan/internal/geom"
	"mudbscan/internal/kdtree"
	"mudbscan/internal/mpi"
)

// Part is the outcome of the partitioning phase on one rank.
type Part struct {
	// IDs and Rows are the points now owned by this rank: row i of Rows is
	// point IDs[i] of the original dataset.
	IDs  []int64
	Rows *geom.PointSet
	// Region is this rank's axis-aligned spatial responsibility region;
	// the regions of all ranks tile the space.
	Region geom.MBR
	// Regions holds every rank's region, indexed by rank.
	Regions []geom.MBR
}

// unboundedMBR covers all of R^dim.
func unboundedMBR(dim int) geom.MBR {
	m := geom.MBR{Min: make(geom.Point, dim), Max: make(geom.Point, dim)}
	for i := 0; i < dim; i++ {
		m.Min[i] = math.Inf(-1)
		m.Max[i] = math.Inf(1)
	}
	return m
}

// KD redistributes the points of every rank (ids and rows, which it takes
// over and compacts in place) with log2(p) rounds of median splits: in each
// round, every active group of ranks picks the widest axis of its combined
// point extent, takes the median of that coordinate, and exchanges points so
// that the lower half of the group holds coordinates < median and the upper
// half the rest. A rank keeps its staying points in order and appends the
// ones it receives. The number of ranks must be a power of two.
//
// sampleSize 0 (the default) takes exact medians over all points; a positive
// sampleSize estimates them from that many points sampled per rank and round
// (the sampling median of BD-CATS, which the paper adopts). seed makes
// sampling deterministic.
func KD(c *mpi.Comm, ids []int64, rows *geom.PointSet, sampleSize int, seed int64) (*Part, error) {
	p := c.Size()
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("partition: rank count %d is not a power of two", p)
	}
	dim := rows.Dim()
	rng := rand.New(rand.NewSource(seed + int64(c.Rank())*7919))
	region := unboundedMBR(dim)

	for group := p; group > 1; group /= 2 {
		base := c.Rank() / group * group
		half := group / 2
		lower := c.Rank()-base < half
		n := rows.Len()

		// 1) Combined extent of the group -> widest axis.
		localMBR := geom.NewMBR(dim)
		for i := 0; i < n; i++ {
			localMBR.ExtendPoint(rows.Point(i))
		}
		allMBR := c.Allgather(encodeMBR(localMBR))
		combined := geom.NewMBR(dim)
		for r := base; r < base+group; r++ {
			m := decodeMBR(allMBR[r], dim)
			if !m.IsEmpty() {
				combined.Extend(m)
			}
		}
		axis := 0
		if !combined.IsEmpty() {
			axis = kdtree.WidestAxisMBR(combined)
		}

		// 2) Median of the group along the axis.
		var sample []float64
		if sampleSize <= 0 || sampleSize >= n {
			sample = make([]float64, n)
			for i := range sample {
				sample[i] = rows.Coord(i, axis)
			}
		} else {
			sample = make([]float64, sampleSize)
			for i := range sample {
				sample[i] = rows.Coord(rng.Intn(n), axis)
			}
		}
		allSamples := c.Allgather(mpi.EncodeFloat64s(sample))
		var pool []float64
		for r := base; r < base+group; r++ {
			pool = append(pool, mpi.DecodeFloat64s(allSamples[r])...)
		}
		median := 0.0
		if len(pool) > 0 {
			median = kdtree.MedianOfValues(pool)
		}

		// 3) Exchange: lower halves keep coord < median. The leaving rows
		// are encoded before the staying ones close up over them.
		stays := func(i int) bool { return (rows.Coord(i, axis) < median) == lower }
		var send []int32
		for i := 0; i < n; i++ {
			if !stays(i) {
				send = append(send, int32(i))
			}
		}
		partner := c.Rank() + half
		if !lower {
			partner = c.Rank() - half
		}
		c.Send(partner, group, EncodeRecords(ids, rows, send))
		kept := 0
		for i := 0; i < n; i++ {
			if stays(i) {
				ids[kept] = ids[i]
				copy(rows.Row(kept), rows.Row(i))
				kept++
			}
		}
		ids = ids[:kept]
		rows.Truncate(kept)
		ids, _ = DecodeRecords(c.Recv(partner, group), ids, rows)

		// 4) Region refinement.
		if lower {
			region.Max[axis] = median
		} else {
			region.Min[axis] = median
		}
		c.Barrier()
	}

	// Publish every rank's region.
	allRegions := c.Allgather(encodeMBR(region))
	regions := make([]geom.MBR, p)
	for r := range regions {
		regions[r] = decodeMBR(allRegions[r], dim)
	}
	return &Part{IDs: ids, Rows: rows, Region: region, Regions: regions}, nil
}

// Halo selects the ε-extended halo of part on rank: for every other rank
// dst, the owned rows inside dst's region expanded by eps. It returns, per
// destination, the encoded records to send there and the rows sent (indices
// into part.Rows, in row order) — the merge pushes the exact core flags of
// those copies later. The buffer for rank itself is nil.
func Halo(part *Part, eps float64, rank int) (bufs [][]byte, sentTo [][]int32) {
	p := len(part.Regions)
	bufs, sentTo = make([][]byte, p), make([][]int32, p)
	for dst := range bufs {
		if dst == rank {
			continue
		}
		ext := part.Regions[dst].Expanded(eps)
		for i := 0; i < part.Rows.Len(); i++ {
			if ext.Contains(part.Rows.Point(i)) {
				sentTo[dst] = append(sentTo[dst], int32(i))
			}
		}
		bufs[dst] = EncodeRecords(part.IDs, part.Rows, sentTo[dst])
	}
	return bufs, sentTo
}

// Scatter deals pts in contiguous chunks to the ranks, simulating the
// parallel file read that precedes partitioning: rank r receives points
// [r*n/p, (r+1)*n/p), as ids equal to their original indices and one copy
// of their rows. pts must not be empty.
func Scatter(rank, size int, pts []geom.Point) (ids []int64, rows *geom.PointSet) {
	n := len(pts)
	lo, hi := rank*n/size, (rank+1)*n/size
	ids = make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	return ids, geom.PointSetFromPoints(len(pts[0]), pts[lo:hi])
}

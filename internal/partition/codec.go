package partition

import (
	"encoding/binary"
	"math"
	"slices"

	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
)

// EncodeRecords packs the rows sel of a rank's points (ids and rows, see
// Part) as [count][ids...][coords...], little-endian int64 ids and float64
// coordinates. It is the one wire format for points everywhere in the
// repository — the partition rounds and the halo exchange share it, so a
// header change cannot diverge between them.
func EncodeRecords(ids []int64, rows *geom.PointSet, sel []int32) []byte {
	n, dim := len(sel), rows.Dim()
	b := make([]byte, 8*(1+n+n*dim))
	binary.LittleEndian.PutUint64(b, uint64(n))
	coords := b[8*(1+n):]
	for k, i := range sel {
		binary.LittleEndian.PutUint64(b[8*(1+k):], uint64(ids[i]))
		for j, v := range rows.Row(int(i)) {
			binary.LittleEndian.PutUint64(coords[8*(k*dim+j):], math.Float64bits(v))
		}
	}
	return b
}

// DecodeRecords appends the records of a buffer produced by EncodeRecords to
// a rank's points: their ids to ids and their coordinates to rows, which
// must have the encoder's dimension. It returns the extended ids and the
// number of records appended. A buffer whose header does not match its
// length (negative count, or fewer id/coordinate bytes than the count
// promises), or a rows of no dimension, appends nothing rather than
// panicking.
//
//mulint:tainted b
func DecodeRecords(b []byte, ids []int64, rows *geom.PointSet) ([]int64, int) {
	dim := rows.Dim()
	if len(b) < 8 || dim <= 0 {
		return ids, 0
	}
	n := int(int64(binary.LittleEndian.Uint64(b)))
	if n <= 0 || n > (len(b)-8)/(8*(1+dim)) {
		return ids, 0
	}
	ids = slices.Grow(ids, n)
	rows.Grow(n)
	row := make([]float64, dim)
	for k := 0; k < n; k++ {
		ids = append(ids, int64(binary.LittleEndian.Uint64(b[8*(1+k):])))
		rows.AppendRow(decodeRow(row, b[8*(1+n+k*dim):]))
	}
	return ids, n
}

// decodeRow fills row from the little-endian float64s at the start of b,
// which holds at least len(row) of them, and returns it.
func decodeRow(row []float64, b []byte) []float64 {
	for j := range row {
		row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
	}
	return row
}

// encodeMBR packs an MBR as min coords followed by max coords.
func encodeMBR(m geom.MBR) []byte {
	vals := make([]float64, 0, 2*m.Dim())
	vals = append(vals, m.Min...)
	vals = append(vals, m.Max...)
	return mpi.EncodeFloat64s(vals)
}

// decodeMBR unpacks a buffer produced by encodeMBR. The buffer crosses the
// wire (Allgather of per-rank regions), so a short or corrupt frame must not
// panic: a buffer with fewer than 2*dim values decodes to the empty MBR,
// which every consumer already treats as "rank holds nothing".
//
//mulint:tainted b
func decodeMBR(b []byte, dim int) geom.MBR {
	vals := mpi.DecodeFloat64s(b)
	if len(vals) < 2*dim {
		return geom.NewMBR(dim)
	}
	return geom.MBR{Min: geom.Point(vals[:dim]), Max: geom.Point(vals[dim : 2*dim])}
}

package partition

import (
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
)

// every selects all n rows of a block.
func every(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// TestRecordCodecBitExact pins bit-preservation for payloads the simple
// round-trip test does not cover — negative zero and a denormal must survive
// encode/decode with identical IEEE-754 bits — and pins the wire layout
// itself: [count][ids][coords], little-endian, byte for byte.
func TestRecordCodecBitExact(t *testing.T) {
	ids := []int64{-9, 1<<40 + 3}
	rows := geom.PointSetFromPoints(3, []geom.Point{
		{1.5, -2.25, 3.125},
		{math.Copysign(0, -1), 1e300, 5e-324},
	})
	enc := EncodeRecords(ids, rows, every(2))
	const golden = "0200000000000000" + "f7ffffffffffffff" + "0300000000010000" +
		"000000000000f83f" + "00000000000002c0" + "0000000000000940" +
		"0000000000000080" + "9c7500883ce4377e" + "0100000000000000"
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("wire bytes drifted:\n got %s\nwant %s", got, golden)
	}
	got := geom.NewPointSet(3, 0)
	gotIDs, n := DecodeRecords(enc, nil, got)
	if n != 2 || !slices.Equal(gotIDs, ids) {
		t.Fatalf("decoded %d records with ids %v, want ids %v", n, gotIDs, ids)
	}
	for i, v := range rows.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("coordinate %d: bits %x, want %x", i, math.Float64bits(got.Data()[i]), math.Float64bits(v))
		}
	}
}

func TestRecordCodecEmpty(t *testing.T) {
	enc := EncodeRecords(nil, geom.NewPointSet(2, 0), nil)
	if hex.EncodeToString(enc) != "0000000000000000" {
		t.Fatalf("empty selection encodes to %x, want a zero count", enc)
	}
	rows := geom.NewPointSet(2, 0)
	if ids, n := DecodeRecords(enc, nil, rows); ids != nil || n != 0 || rows.Len() != 0 {
		t.Fatalf("empty buffer should decode to nothing, got %d records", n)
	}
}

// TestRecordCodecHardening pins the defensive behaviour the dist drivers
// rely on: malformed buffers append nothing, never panic, never over-read.
func TestRecordCodecHardening(t *testing.T) {
	valid := EncodeRecords([]int64{1, 2}, geom.PointSetFromPoints(2, []geom.Point{{1, 2}, {3, 4}}), every(2))
	cases := map[string][]byte{
		"nil":            nil,
		"short header":   valid[:4],
		"truncated body": valid[:len(valid)-8],
		"negative count": append(mpi.EncodeInt64s([]int64{-1}), valid[8:]...),
		"count too big":  append(mpi.EncodeInt64s([]int64{1 << 40}), valid[8:]...),
	}
	for name, b := range cases {
		rows := geom.PointSetFromPoints(2, []geom.Point{{5, 6}})
		ids, n := DecodeRecords(b, []int64{9}, rows)
		if n != 0 || !slices.Equal(ids, []int64{9}) || !slices.Equal(rows.Data(), []float64{5, 6}) {
			t.Fatalf("%s: want nothing appended, got %d records", name, n)
		}
	}
	if _, n := DecodeRecords(valid, nil, &geom.PointSet{}); n != 0 {
		t.Fatal("dim=0 must decode to nothing")
	}
	if _, n := DecodeRecords(valid, nil, geom.NewPointSet(2, 0)); n != 2 {
		t.Fatal("valid buffer rejected")
	}
}

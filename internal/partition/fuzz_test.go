package partition

import (
	"bytes"
	"sync"
	"testing"

	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
)

// FuzzDecodeRecords feeds arbitrary bytes to the record codec: no input may
// panic (malformed headers decode to nothing), every decoded record must
// bring one id and one row of the requested dimensionality, and re-encoding
// the decode must be a fixed point (the canonical wire form round-trips bit
// for bit, NaN coordinates included).
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add(EncodeRecords([]int64{7, -3}, geom.PointSetFromPoints(2, []geom.Point{{1, 2}, {0.5, -0.5}}), every(2)), byte(1))
	f.Add(mpi.EncodeInt64s([]int64{-5}), byte(0))                 // negative count
	f.Add(mpi.EncodeInt64s([]int64{1 << 40}), byte(2))            // count far beyond buffer
	f.Add(append(mpi.EncodeInt64s([]int64{2}), 1, 2, 3), byte(0)) // truncated body
	f.Fuzz(func(t *testing.T, b []byte, dimByte byte) {
		dim := int(dimByte)%8 + 1
		rows := geom.NewPointSet(dim, 0)
		ids, n := DecodeRecords(b, nil, rows)
		if len(ids) != n || rows.Len() != n || len(rows.Data()) != n*dim {
			t.Fatalf("%d records decoded to %d ids and %d coordinates at dim %d", n, len(ids), len(rows.Data()), dim)
		}
		enc := EncodeRecords(ids, rows, every(n))
		again := geom.NewPointSet(dim, 0)
		againIDs, _ := DecodeRecords(enc, nil, again)
		if reenc := EncodeRecords(againIDs, again, every(len(againIDs))); !bytes.Equal(reenc, enc) {
			t.Fatalf("canonical form not a fixed point: %x vs %x", reenc, enc)
		}
	})
}

// FuzzKDOwnership drives the kd partitioning with heavily quantized
// coordinates so that many points land exactly on the sampled medians, and
// checks the ownership invariant the halo/merge phases rely on: after
// partitioning, every input point is owned by exactly one rank, no point is
// lost or duplicated, and every owned point lies inside its rank's region.
func FuzzKDOwnership(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 8, 8, 8, 8, 16, 255}, byte(1), int64(1), byte(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, byte(0), int64(3), byte(4))
	f.Add([]byte{0, 64, 128, 192, 0, 64, 128, 192, 32, 96}, byte(2), int64(9), byte(16))
	f.Fuzz(func(t *testing.T, raw []byte, dimByte byte, seed int64, sampleByte byte) {
		dim := int(dimByte)%3 + 1
		n := len(raw) / dim
		if n == 0 {
			return
		}
		if n > 64 {
			n = 64
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, dim)
			for j := range p {
				// 16 distinct values per axis: median ties are the norm.
				p[j] = float64(raw[i*dim+j]&0x0f) * 0.25
			}
			pts[i] = p
		}
		const p = 4
		sample := int(sampleByte) % 32 // 0 = exact medians

		var mu sync.Mutex
		owned := make(map[int64]int)
		_, err := mpi.Run(p, func(c *mpi.Comm) error {
			ids, rows := Scatter(c.Rank(), p, pts)
			part, err := KD(c, ids, rows, sample, seed)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for i, id := range part.IDs {
				owned[id]++
				if !part.Region.Contains(part.Rows.Point(i)) {
					t.Errorf("rank %d owns point %d outside its region", c.Rank(), id)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if owned[int64(i)] != 1 {
				t.Fatalf("point %d owned by %d ranks, want exactly 1", i, owned[int64(i)])
			}
		}
	})
}

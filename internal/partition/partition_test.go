package partition

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// runKD partitions pts across p ranks and returns per-rank parts.
func runKD(t *testing.T, pts []geom.Point, p, dim, sampleSize int) []*Part {
	t.Helper()
	parts := make([]*Part, p)
	var mu sync.Mutex
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		ids, rows := Scatter(c.Rank(), c.Size(), pts)
		part, err := KD(c, ids, rows, sampleSize, 42)
		if err != nil {
			return err
		}
		mu.Lock()
		parts[c.Rank()] = part
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func TestKDPreservesAllRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 1000, 3)
	for _, p := range []int{1, 2, 4, 8} {
		parts := runKD(t, pts, p, 3, 0)
		var ids []int
		for _, part := range parts {
			if part.Rows.Len() != len(part.IDs) {
				t.Fatalf("p=%d: %d rows for %d ids", p, part.Rows.Len(), len(part.IDs))
			}
			for i, id := range part.IDs {
				ids = append(ids, int(id))
				if !pts[id].Equal(part.Rows.Point(i)) {
					t.Fatalf("p=%d: record %d coordinates corrupted", p, id)
				}
			}
		}
		sort.Ints(ids)
		if len(ids) != len(pts) {
			t.Fatalf("p=%d: %d records after partitioning, want %d", p, len(ids), len(pts))
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("p=%d: record %d missing or duplicated", p, i)
			}
		}
	}
}

func TestKDPointsInsideTheirRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 800, 2)
	parts := runKD(t, pts, 8, 2, 0)
	for r, part := range parts {
		for i := 0; i < part.Rows.Len(); i++ {
			if pt := part.Rows.Point(i); !part.Region.Contains(pt) {
				t.Fatalf("rank %d: point %v outside region %v", r, pt, part.Region)
			}
		}
	}
}

func TestKDRegionsDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 600, 3)
	parts := runKD(t, pts, 8, 3, 0)
	regions := parts[0].Regions
	// Probe random points: each must belong to at least one region, and to
	// exactly one region interior-wise (boundaries are half-open by the
	// "< median goes lower" rule, so count containment with that rule).
	for trial := 0; trial < 500; trial++ {
		q := geom.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		hits := 0
		for _, reg := range regions {
			inside := true
			for ax := range q {
				if q[ax] < reg.Min[ax] || q[ax] >= reg.Max[ax] {
					inside = false
					break
				}
			}
			if inside {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("probe %v lies in %d regions", q, hits)
		}
	}
}

func TestKDBalanceWithExactMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 4096, 3)
	parts := runKD(t, pts, 8, 3, 0)
	for r, part := range parts {
		n := len(part.IDs)
		if n < 4096/8-64 || n > 4096/8+64 {
			t.Fatalf("rank %d holds %d points; exact medians should balance near %d", r, n, 4096/8)
		}
	}
}

func TestKDBalanceWithSampledMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 8000, 3)
	parts := runKD(t, pts, 8, 3, 200)
	for r, part := range parts {
		n := len(part.IDs)
		if n < 500 || n > 1500 {
			t.Fatalf("rank %d holds %d points; sampled medians should balance roughly", r, n)
		}
	}
}

func TestKDRejectsNonPowerOfTwo(t *testing.T) {
	_, err := mpi.Run(3, func(c *mpi.Comm) error {
		_, err := KD(c, nil, geom.NewPointSet(2, 0), 0, 1)
		return err
	})
	if err == nil {
		t.Fatal("expected power-of-two error")
	}
}

func TestKDSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 100, 2)
	parts := runKD(t, pts, 1, 2, 0)
	if len(parts[0].IDs) != 100 {
		t.Fatalf("single rank should keep all points, has %d", len(parts[0].IDs))
	}
	if !parts[0].Region.Contains(geom.Point{1e9, -1e9}) {
		t.Fatal("single-rank region should be unbounded")
	}
}

// TestHaloExchangeCorrectness runs Halo's buffers through the exchange and
// checks what each rank receives: none of its own points, no point twice,
// only points inside its ε-extended region, and every foreign ε-neighbour of
// a point it owns. The rows each rank reports sending must be the ones its
// buffers carry.
func TestHaloExchangeCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 1200, 2)
	const p = 4
	const eps = 3.0
	haloIDs := make([][]int64, p)
	halos := make([]*geom.PointSet, p)
	parts := make([]*Part, p)
	var mu sync.Mutex
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		ids, rows := Scatter(c.Rank(), c.Size(), pts)
		part, err := KD(c, ids, rows, 0, 9)
		if err != nil {
			return err
		}
		bufs, sentTo := Halo(part, eps, c.Rank())
		for dst, b := range bufs {
			sent := make([]int64, len(sentTo[dst]))
			for k, i := range sentTo[dst] {
				sent[k] = part.IDs[i]
			}
			if got, _ := DecodeRecords(b, nil, geom.NewPointSet(2, 0)); !slices.Equal(got, sent) {
				t.Errorf("rank %d: buffer for %d carries %v, sentTo names %v", c.Rank(), dst, got, sent)
			}
		}
		recv := c.Alltoall(bufs)
		hids, hrows := []int64(nil), geom.NewPointSet(2, 0)
		for src, b := range recv {
			if src != c.Rank() {
				hids, _ = DecodeRecords(b, hids, hrows)
			}
		}
		mu.Lock()
		parts[c.Rank()] = part
		haloIDs[c.Rank()], halos[c.Rank()] = hids, hrows
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		owned := make(map[int64]bool)
		for _, id := range parts[r].IDs {
			owned[id] = true
		}
		have := make(map[int64]bool)
		for k, id := range haloIDs[r] {
			if owned[id] {
				t.Fatalf("rank %d received its own point %d as halo", r, id)
			}
			if have[id] {
				t.Fatalf("rank %d received halo point %d twice", r, id)
			}
			have[id] = true
			if !parts[r].Region.Expanded(eps).Contains(halos[r].Point(k)) {
				t.Fatalf("rank %d: halo point %d outside ε-extended region", r, id)
			}
		}
		// Completeness: every foreign point within eps of a local point
		// must be present in the halo.
		for i, id := range parts[r].IDs {
			for j, q := range pts {
				if owned[int64(j)] {
					continue
				}
				if geom.Within(parts[r].Rows.Point(i), q, eps) && !have[int64(j)] {
					t.Fatalf("rank %d: foreign neighbor %d of local %d missing from halo", r, j, id)
				}
			}
		}
	}
}

func TestScatterCoversAll(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(8)), 103, 2)
	seen := make([]bool, 103)
	total := 0
	for r := 0; r < 8; r++ {
		ids, rows := Scatter(r, 8, pts)
		for i, id := range ids {
			if seen[id] {
				t.Fatalf("point %d scattered twice", id)
			}
			if !pts[id].Equal(rows.Point(i)) {
				t.Fatalf("point %d scattered with the wrong row", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != 103 {
		t.Fatalf("scattered %d of 103", total)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 17} {
		ids := make([]int64, n)
		rows := geom.NewPointSet(3, n)
		for i := range ids {
			ids[i] = int64(i * 1000)
			rows.Append(geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		}
		// Decoding appends after what the block already holds.
		got := geom.PointSetFromPoints(3, []geom.Point{{7, 7, 7}})
		gotIDs, m := DecodeRecords(EncodeRecords(ids, rows, every(n)), []int64{-1}, got)
		if m != n || len(gotIDs) != n+1 || got.Len() != n+1 {
			t.Fatalf("n=%d: decoded %d", n, m)
		}
		if gotIDs[0] != -1 || !got.Point(0).Equal(geom.Point{7, 7, 7}) {
			t.Fatalf("n=%d: decoding disturbed the rows already held", n)
		}
		for i := range ids {
			if gotIDs[1+i] != ids[i] || !got.Point(1+i).Equal(rows.Point(i)) {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
		}
	}
}

func TestMBRCodecRoundTrip(t *testing.T) {
	m := geom.MBR{Min: geom.Point{-1, 2}, Max: geom.Point{3, 4}}
	got := decodeMBR(encodeMBR(m), 2)
	if !got.Min.Equal(m.Min) || !got.Max.Equal(m.Max) {
		t.Fatalf("round trip: %v", got)
	}
}

// A short or corrupt MBR frame off the wire must decode to the empty MBR,
// never panic. This pins the truncation guard decodesafe demanded: before
// it, decodeMBR sliced vals[:dim] on whatever length the frame delivered.
func TestMBRCodecTruncated(t *testing.T) {
	full := encodeMBR(geom.MBR{Min: geom.Point{-1, 2}, Max: geom.Point{3, 4}})
	for _, b := range [][]byte{nil, {}, full[:8], full[:len(full)-8], full[:len(full)-1]} {
		got := decodeMBR(b, 2)
		if !got.IsEmpty() {
			t.Fatalf("decodeMBR(%d bytes) = %v, want empty", len(b), got)
		}
	}
}

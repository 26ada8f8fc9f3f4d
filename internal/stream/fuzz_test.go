package stream

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// FuzzStreamAdd drives a clusterer through an arbitrary op stream decoded
// from the fuzz input: well-formed adds, wild raw-bit coordinates (NaN, ±Inf,
// huge magnitudes), malformed dimensionality, and out-of-order or non-finite
// timestamps. Invalid inputs must be rejected by error, never panic, and
// every snapshot taken along the way must be an exact DBSCAN clustering of
// its own window — validated internally and checked equivalent (same cores,
// partition and noise) to brute force over the window.
//
// Layout: the first byte selects the window mode; then 17-byte chunks of
// [op, 8 bytes, 8 bytes]. Printable ASCII decodes to meaningful ops, so the
// checked-in corpus under testdata/fuzz/FuzzStreamAdd is human-readable.
func FuzzStreamAdd(f *testing.F) {
	// Mode byte: bit 3 clear ('0') = landmark, set ('8') = damped.
	// In-order tame adds with interleaved snapshots.
	f.Add([]byte("0" + "0AAAAAAAABBBBBBBB" + "1CCCCCCCCAAAAAAAA" + "6................" + "0ABABABABBBBBBBBB"))
	// Damped mode with explicit timestamps, some out of order.
	f.Add([]byte("8" + "3AAAAAAAABBBBBBBB" + "3ZZZZZZZZAAAAAAAA" + "3AAAAAAAABBBBBBBB" + "7................"))
	// Malformed dimensionality and wild raw-bit coordinates.
	f.Add([]byte("0" + "5AAAAAAAABBBBBBBB" + "2\xff\xf0\x00\x00\x00\x00\x00\x00AAAAAAAA" + "6................"))
	// Non-finite timestamps.
	f.Add([]byte("8" + "4AAAAAAAA\x7f\xf0\x00\x00\x00\x00\x00\x00" + "0AAAAAAAABBBBBBBB" + "6................"))

	const (
		eps    = 1.25
		minPts = 3
		chunk  = 17
		maxOps = 256
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		var opts Options
		if data[0]&8 != 0 {
			opts.Lambda = 0.05
		}
		c, err := New(2, eps, minPts, opts)
		if err != nil {
			t.Fatal(err)
		}

		// tame maps 8 raw bytes onto a small 0.25-quantized grid so clusters
		// actually form; wild reinterprets them as float bits.
		tame := func(u uint64) float64 { return float64(u%64) * 0.25 }
		wild := math.Float64frombits

		accepted := 0
		verify := func(s *Snapshot) {
			// The window is the newest run of arrivals: contiguous sequence
			// numbers ending at the last accepted point.
			for i, seq := range s.Seqs {
				if seq != int64(accepted-s.Len()+i) {
					t.Fatalf("window row %d has seq %d, want %d", i, seq, accepted-s.Len()+i)
				}
			}
			res := s.Result()
			if err := res.Validate(); err != nil {
				t.Fatalf("snapshot invalid: %v", err)
			}
			window := make([]geom.Point, s.Len())
			for i := range window {
				window[i] = s.Points.Point(i)
			}
			brute, _ := dbscan.Brute(window, eps, minPts)
			if !reflect.DeepEqual(brute, res) {
				t.Fatalf("snapshot not brute force's result on its window (%v)", clustering.Equivalent(brute, res))
			}
		}

		body := data[1:]
		for o := 0; o+chunk <= len(body) && o/chunk < maxOps; o += chunk {
			op := body[o] % 8
			u1 := binary.LittleEndian.Uint64(body[o+1 : o+9])
			u2 := binary.LittleEndian.Uint64(body[o+9 : o+17])
			switch op {
			case 0, 1: // tame add
				if err := c.Add([]float64{tame(u1), tame(u2)}); err != nil {
					t.Fatalf("tame Add rejected: %v", err)
				}
				accepted++
			case 2: // wild coordinates: non-finite must error, finite absorb
				err := c.Add([]float64{wild(u1), wild(u2)})
				finite := !math.IsNaN(wild(u1)) && !math.IsInf(wild(u1), 0) &&
					!math.IsNaN(wild(u2)) && !math.IsInf(wild(u2), 0)
				if finite != (err == nil) {
					t.Fatalf("wild Add: finite=%v err=%v", finite, err)
				}
				if err == nil {
					accepted++
				}
			case 3: // explicit timestamp, frequently out of order
				if err := c.AddAt([]float64{tame(u2), tame(u1)}, float64(u1%4096)*0.25); err == nil {
					accepted++
				}
			case 4: // malformed timestamp (raw bits: NaN/Inf/negative/huge)
				if err := c.AddAt([]float64{tame(u1), tame(u2)}, wild(u2)); err == nil {
					accepted++
				}
			case 5: // wrong dimensionality must be rejected
				if err := c.Add([]float64{tame(u1)}); err == nil {
					t.Fatal("1-dim point accepted into 2-dim stream")
				}
			case 6, 7: // observe
				s := c.Snapshot()
				if opts.Lambda == 0 && s.Len() != accepted {
					t.Fatalf("landmark window %d != accepted %d", s.Len(), accepted)
				}
				verify(s)
			}
		}
		if got := c.Stats().Accepted; got != int64(accepted) {
			t.Fatalf("Stats().Accepted=%d accepted=%d", got, accepted)
		}
		verify(c.Snapshot())
	})
}

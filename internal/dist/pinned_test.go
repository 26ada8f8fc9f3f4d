package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// baselineHash is a short digest of a clustering's labels and core flags.
func baselineHash(r *clustering.Result) string {
	h := sha256.New()
	var b [9]byte
	for i, l := range r.Labels {
		binary.LittleEndian.PutUint64(b[:8], uint64(int64(l)))
		b[8] = 0
		if r.Core[i] {
			b[8] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// pinnedCases is the conformance table followed by the scenario corpus, in
// the order of seqPinned and distPinned.
func pinnedCases() []confDataset {
	out := conformanceDatasets()
	for _, s := range data.Scenarios() {
		out = append(out, confDataset{name: s.Name, pts: s.Pts, eps: s.Eps, minPts: s.MinPts})
	}
	return out
}

type seqBaseline struct {
	name string
	run  func(pts []geom.Point, eps float64, minPts int) (*clustering.Result, dbscan.Stats, error)
}

func seqBaselines() []seqBaseline {
	noErr := func(f func([]geom.Point, float64, int) (*clustering.Result, dbscan.Stats)) func([]geom.Point, float64, int) (*clustering.Result, dbscan.Stats, error) {
		return func(pts []geom.Point, eps float64, minPts int) (*clustering.Result, dbscan.Stats, error) {
			r, st := f(pts, eps, minPts)
			return r, st, nil
		}
	}
	return []seqBaseline{
		{"Brute", noErr(dbscan.Brute)},
		{"R-DBSCAN", noErr(dbscan.RDBSCAN)},
		{"KD-DBSCAN", noErr(dbscan.KDBSCAN)},
		{"G-DBSCAN", noErr(dbscan.GDBSCAN)},
		{"GridDBSCAN", func(pts []geom.Point, eps float64, minPts int) (*clustering.Result, dbscan.Stats, error) {
			return dbscan.GridDBSCAN(pts, eps, minPts, dbscan.GridOptions{})
		}},
	}
}

var distBaselines = []struct {
	name string
	run  distAlgo
}{
	{"PDSDBSCAN-D", PDSDBSCAND},
	{"GridDBSCAN-D", GridDBSCAND},
	{"HPDBSCAN", HPDBSCAN},
}

// seqPin is one sequential baseline on one dataset.
type seqPin struct {
	hash                  string
	queries, queriesSaved int
	distCalcs             int64
}

// distPin is one distributed baseline on one dataset at one rank count; a
// non-nil err is the error the run must return instead.
type distPin struct {
	hash                   string
	queries, queriesSaved  int64
	mergeBytes, haloPoints int64
	err                    error
}

// TestBaselinesPinned pins what the classic disjoint-set baselines answer
// and how much work they report, on all 13 conformance and scenario
// datasets: the five sequential ones (labels+core hash, queries, saved
// queries, distance computations) and the three exact distributed ones at
// p = 1, 2, 4 and 8 (the same hash, queries, saved queries, merge bytes and
// halo copies). A change to the union-find driver they share
// that moves any of these fails here.
func TestBaselinesPinned(t *testing.T) {
	cases := pinnedCases()
	if len(cases) != len(seqPinned) || len(cases) != len(distPinned) {
		t.Fatalf("%d datasets, %d sequential and %d distributed pins", len(cases), len(seqPinned), len(distPinned))
	}
	for k, c := range cases {
		for j, b := range seqBaselines() {
			t.Run(fmt.Sprintf("%s/%s", c.name, b.name), func(t *testing.T) {
				pin := seqPinned[k].pins[j]
				if seqPinned[k].name != c.name {
					t.Fatalf("pin %d is for %q", k, seqPinned[k].name)
				}
				r, st, err := b.run(c.pts, c.eps, c.minPts)
				if err != nil {
					t.Fatal(err)
				}
				if got := baselineHash(r); got != pin.hash || st.Queries != pin.queries ||
					st.QueriesSaved != pin.queriesSaved || st.DistCalcs != pin.distCalcs {
					t.Errorf("got {%q, %d, %d, %d}, pinned %+v", got, st.Queries, st.QueriesSaved, st.DistCalcs, pin)
				}
			})
		}
		for j, b := range distBaselines {
			for pi, p := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", c.name, b.name, p), func(t *testing.T) {
					pin := distPinned[k].pins[j][pi]
					if distPinned[k].name != c.name {
						t.Fatalf("pin %d is for %q", k, distPinned[k].name)
					}
					r, st, err := b.run(c.pts, c.eps, c.minPts, p, Options{Seed: 7})
					if pin.err != nil || err != nil {
						if !errors.Is(err, pin.err) {
							t.Fatalf("err %v, pinned %v", err, pin.err)
						}
						return
					}
					if got := baselineHash(r); got != pin.hash || st.Queries != pin.queries || st.QueriesSaved != pin.queriesSaved ||
						st.MergeBytes != pin.mergeBytes || st.HaloPoints != pin.haloPoints {
						t.Errorf("got {%q, %d, %d, %d, %d}, pinned %+v", got, st.Queries, st.QueriesSaved,
							st.MergeBytes, st.HaloPoints, pin)
					}
				})
			}
		}
	}
}

var seqPinned = []struct {
	name string
	pins [5]seqPin
}{
	{"blobs-3d", [5]seqPin{
		{"d05c6c4478e8884f", 400, 0, 160000},
		{"d05c6c4478e8884f", 400, 0, 24971},
		{"d05c6c4478e8884f", 400, 0, 24106},
		{"d05c6c4478e8884f", 400, 0, 143126},
		{"d05c6c4478e8884f", 387, 13, 17412},
	}},
	{"blobs-2d-small-eps", [5]seqPin{
		{"12d7c868fbc5c446", 350, 0, 122500},
		{"12d7c868fbc5c446", 350, 0, 16904},
		{"12d7c868fbc5c446", 350, 0, 16654},
		{"12d7c868fbc5c446", 350, 0, 94369},
		{"12d7c868fbc5c446", 156, 194, 2367},
	}},
	{"uniform-2d", [5]seqPin{
		{"b26a8f28c97c4d8f", 300, 0, 90000},
		{"b26a8f28c97c4d8f", 300, 0, 8445},
		{"b26a8f28c97c4d8f", 300, 0, 5177},
		{"b26a8f28c97c4d8f", 300, 0, 110931},
		{"b26a8f28c97c4d8f", 300, 0, 2292},
	}},
	{"skewed-3d", [5]seqPin{
		{"68d6b809346e7bcd", 350, 0, 122500},
		{"68d6b809346e7bcd", 350, 0, 45953},
		{"68d6b809346e7bcd", 350, 0, 44580},
		{"68d6b809346e7bcd", 350, 0, 101066},
		{"68d6b809346e7bcd", 272, 78, 32676},
	}},
	{"all-noise", [5]seqPin{
		{"7fbbb3cee1a34f39", 100, 0, 10000},
		{"7fbbb3cee1a34f39", 100, 0, 1133},
		{"7fbbb3cee1a34f39", 100, 0, 1252},
		{"7fbbb3cee1a34f39", 100, 0, 15050},
		{"7fbbb3cee1a34f39", 100, 0, 100},
	}},
	{"border-tie-1d", [5]seqPin{
		{"413c0541fd1a832d", 11, 0, 121},
		{"413c0541fd1a832d", 11, 0, 121},
		{"413c0541fd1a832d", 11, 0, 121},
		{"413c0541fd1a832d", 11, 0, 145},
		{"e30b173a88190649", 6, 5, 56},
	}},
	{"lattice-dup-2d", [5]seqPin{
		{"b81a379f04a0845d", 180, 0, 32400},
		{"b81a379f04a0845d", 180, 0, 8501},
		{"b81a379f04a0845d", 180, 0, 6951},
		{"b81a379f04a0845d", 180, 0, 43396},
		{"b81a379f04a0845d", 168, 12, 7966},
	}},
	{"cell-boundary-lattice-2d", [5]seqPin{
		{"a2c19f9be7d51e78", 196, 0, 38416},
		{"a2c19f9be7d51e78", 196, 0, 6179},
		{"a2c19f9be7d51e78", 196, 0, 5856},
		{"a2c19f9be7d51e78", 196, 0, 59798},
		{"a2c19f9be7d51e78", 196, 0, 4096},
	}},
	{"hot-cell-skew-2d", [5]seqPin{
		{"b66710c9b1c473ab", 103, 0, 10609},
		{"b66710c9b1c473ab", 103, 0, 5782},
		{"b66710c9b1c473ab", 103, 0, 7258},
		{"b66710c9b1c473ab", 103, 0, 9477},
		{"b66710c9b1c473ab", 39, 64, 245},
	}},
	{"geo-drift", [5]seqPin{
		{"65549f16ef46471d", 2400, 0, 5760000},
		{"65549f16ef46471d", 2400, 0, 124115},
		{"65549f16ef46471d", 2400, 0, 117302},
		{"65549f16ef46471d", 2400, 0, 3714899},
		{"65549f16ef46471d", 1008, 1392, 7100},
	}},
	{"highdim-embed", [5]seqPin{
		{"d7b9f0a0af778109", 1500, 0, 2250000},
		{"d7b9f0a0af778109", 1500, 0, 453066},
		{"d7b9f0a0af778109", 1500, 0, 416236},
		{"d7b9f0a0af778109", 1500, 0, 428483},
		{"d7b9f0a0af778109", 1304, 196, 1011598},
	}},
	{"all-border-ties", [5]seqPin{
		{"6b767dc17f0c0498", 264, 0, 69696},
		{"6b767dc17f0c0498", 264, 0, 18795},
		{"6b767dc17f0c0498", 264, 0, 5016},
		{"6b767dc17f0c0498", 264, 0, 46812},
		{"6b767dc17f0c0498", 168, 96, 1272},
	}},
	{"bursty-arrival", [5]seqPin{
		{"2be5ded5c4f2526b", 2000, 0, 4000000},
		{"2be5ded5c4f2526b", 2000, 0, 382930},
		{"2be5ded5c4f2526b", 2000, 0, 395614},
		{"2be5ded5c4f2526b", 2000, 0, 1362484},
		{"2be5ded5c4f2526b", 353, 1647, 23006},
	}},
}

var distPinned = []struct {
	name string
	pins [3][4]distPin
}{
	{"blobs-3d", [3][4]distPin{
		{
			{"d05c6c4478e8884f", 400, 0, 4864, 0, nil},
			{"d05c6c4478e8884f", 400, 0, 6768, 176, nil},
			{"d05c6c4478e8884f", 400, 0, 8102, 294, nil},
			{"d05c6c4478e8884f", 400, 0, 11827, 563, nil},
		},
		{
			{"d05c6c4478e8884f", 387, 13, 4864, 0, nil},
			{"d05c6c4478e8884f", 387, 13, 6768, 176, nil},
			{"d05c6c4478e8884f", 387, 13, 8102, 294, nil},
			{"d05c6c4478e8884f", 387, 13, 11827, 563, nil},
		},
		{
			{"d05c6c4478e8884f", 400, 0, 4864, 0, nil},
			{"d05c6c4478e8884f", 400, 0, 6768, 176, nil},
			{"d05c6c4478e8884f", 400, 0, 8102, 294, nil},
			{"d05c6c4478e8884f", 400, 0, 11827, 563, nil},
		},
	}},
	{"blobs-2d-small-eps", [3][4]distPin{
		{
			{"12d7c868fbc5c446", 350, 0, 3872, 0, nil},
			{"12d7c868fbc5c446", 350, 0, 4969, 73, nil},
			{"12d7c868fbc5c446", 350, 0, 5642, 122, nil},
			{"12d7c868fbc5c446", 350, 0, 8924, 364, nil},
		},
		{
			{"12d7c868fbc5c446", 156, 194, 3872, 0, nil},
			{"12d7c868fbc5c446", 156, 194, 4985, 73, nil},
			{"12d7c868fbc5c446", 156, 194, 5722, 122, nil},
			{"12d7c868fbc5c446", 156, 194, 9420, 364, nil},
		},
		{
			{"12d7c868fbc5c446", 350, 0, 3872, 0, nil},
			{"12d7c868fbc5c446", 350, 0, 4969, 73, nil},
			{"12d7c868fbc5c446", 350, 0, 5642, 122, nil},
			{"12d7c868fbc5c446", 350, 0, 8924, 364, nil},
		},
	}},
	{"uniform-2d", [3][4]distPin{
		{
			{"b26a8f28c97c4d8f", 300, 0, 1808, 0, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1892, 36, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1947, 75, nil},
			{"b26a8f28c97c4d8f", 300, 0, 2069, 133, nil},
		},
		{
			{"b26a8f28c97c4d8f", 300, 0, 1808, 0, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1892, 36, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1947, 75, nil},
			{"b26a8f28c97c4d8f", 300, 0, 2069, 133, nil},
		},
		{
			{"b26a8f28c97c4d8f", 300, 0, 1808, 0, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1892, 36, nil},
			{"b26a8f28c97c4d8f", 300, 0, 1947, 75, nil},
			{"b26a8f28c97c4d8f", 300, 0, 2069, 133, nil},
		},
	}},
	{"skewed-3d", [3][4]distPin{
		{
			{"68d6b809346e7bcd", 350, 0, 4944, 0, nil},
			{"68d6b809346e7bcd", 350, 0, 8728, 248, nil},
			{"68d6b809346e7bcd", 350, 0, 14702, 686, nil},
			{"68d6b809346e7bcd", 350, 0, 23010, 1394, nil},
		},
		{
			{"68d6b809346e7bcd", 272, 78, 4944, 0, nil},
			{"68d6b809346e7bcd", 272, 78, 8728, 248, nil},
			{"68d6b809346e7bcd", 272, 78, 14718, 686, nil},
			{"68d6b809346e7bcd", 272, 78, 23538, 1394, nil},
		},
		{
			{"68d6b809346e7bcd", 350, 0, 4944, 0, nil},
			{"68d6b809346e7bcd", 350, 0, 8728, 248, nil},
			{"68d6b809346e7bcd", 350, 0, 14702, 686, nil},
			{"68d6b809346e7bcd", 350, 0, 23010, 1394, nil},
		},
	}},
	{"all-noise", [3][4]distPin{
		{
			{"7fbbb3cee1a34f39", 100, 0, 0, 0, nil},
			{"7fbbb3cee1a34f39", 100, 0, 1, 1, nil},
			{"7fbbb3cee1a34f39", 100, 0, 3, 3, nil},
			{"7fbbb3cee1a34f39", 100, 0, 7, 7, nil},
		},
		{
			{"7fbbb3cee1a34f39", 100, 0, 0, 0, nil},
			{"7fbbb3cee1a34f39", 100, 0, 1, 1, nil},
			{"7fbbb3cee1a34f39", 100, 0, 3, 3, nil},
			{"7fbbb3cee1a34f39", 100, 0, 7, 7, nil},
		},
		{
			{"7fbbb3cee1a34f39", 100, 0, 0, 0, nil},
			{"7fbbb3cee1a34f39", 100, 0, 1, 1, nil},
			{"7fbbb3cee1a34f39", 100, 0, 3, 3, nil},
			{"7fbbb3cee1a34f39", 100, 0, 7, 7, nil},
		},
	}},
	{"border-tie-1d", [3][4]distPin{
		{
			{"413c0541fd1a832d", 11, 0, 144, 0, nil},
			{"e30b173a88190649", 11, 0, 149, 5, nil},
			{"e30b173a88190649", 11, 0, 288, 16, nil},
			{"e30b173a88190649", 11, 0, 437, 37, nil},
		},
		{
			{"e30b173a88190649", 6, 5, 144, 0, nil},
			{"e30b173a88190649", 6, 5, 149, 5, nil},
			{"e30b173a88190649", 6, 5, 288, 16, nil},
			{"e30b173a88190649", 6, 5, 437, 37, nil},
		},
		{
			{"413c0541fd1a832d", 11, 0, 144, 0, nil},
			{"e30b173a88190649", 11, 0, 149, 5, nil},
			{"e30b173a88190649", 11, 0, 288, 16, nil},
			{"e30b173a88190649", 11, 0, 437, 37, nil},
		},
	}},
	{"lattice-dup-2d", [3][4]distPin{
		{
			{"b81a379f04a0845d", 180, 0, 2864, 0, nil},
			{"b81a379f04a0845d", 180, 0, 3403, 75, nil},
			{"b81a379f04a0845d", 180, 0, 4037, 181, nil},
			{"b81a379f04a0845d", 180, 0, 5219, 387, nil},
		},
		{
			{"b81a379f04a0845d", 168, 12, 2864, 0, nil},
			{"b81a379f04a0845d", 168, 12, 3451, 75, nil},
			{"b81a379f04a0845d", 168, 12, 4133, 181, nil},
			{"b81a379f04a0845d", 168, 12, 5443, 387, nil},
		},
		{
			{"b81a379f04a0845d", 180, 0, 2864, 0, nil},
			{"b81a379f04a0845d", 180, 0, 3403, 75, nil},
			{"b81a379f04a0845d", 180, 0, 4037, 181, nil},
			{"b81a379f04a0845d", 180, 0, 5219, 387, nil},
		},
	}},
	{"cell-boundary-lattice-2d", [3][4]distPin{
		{
			{"a2c19f9be7d51e78", 196, 0, 3056, 0, nil},
			{"a2c19f9be7d51e78", 196, 0, 3466, 42, nil},
			{"a2c19f9be7d51e78", 196, 0, 3869, 93, nil},
			{"a2c19f9be7d51e78", 196, 0, 4608, 192, nil},
		},
		{
			{"a2c19f9be7d51e78", 196, 0, 3056, 0, nil},
			{"a2c19f9be7d51e78", 196, 0, 3466, 42, nil},
			{"a2c19f9be7d51e78", 196, 0, 3869, 93, nil},
			{"a2c19f9be7d51e78", 196, 0, 4608, 192, nil},
		},
		{
			{"a2c19f9be7d51e78", 196, 0, 3056, 0, nil},
			{"a2c19f9be7d51e78", 196, 0, 3466, 42, nil},
			{"a2c19f9be7d51e78", 196, 0, 3869, 93, nil},
			{"a2c19f9be7d51e78", 196, 0, 4608, 192, nil},
		},
	}},
	{"hot-cell-skew-2d", [3][4]distPin{
		{
			{"b66710c9b1c473ab", 103, 0, 1040, 0, nil},
			{"b66710c9b1c473ab", 103, 0, 2133, 69, nil},
			{"b66710c9b1c473ab", 103, 0, 4317, 205, nil},
			{"b66710c9b1c473ab", 103, 0, 6616, 472, nil},
		},
		{
			{"b66710c9b1c473ab", 39, 64, 1040, 0, nil},
			{"b66710c9b1c473ab", 39, 64, 2133, 69, nil},
			{"b66710c9b1c473ab", 39, 64, 4317, 205, nil},
			{"b66710c9b1c473ab", 39, 64, 8632, 472, nil},
		},
		{
			{"b66710c9b1c473ab", 103, 0, 1040, 0, nil},
			{"b66710c9b1c473ab", 103, 0, 2133, 69, nil},
			{"b66710c9b1c473ab", 103, 0, 4317, 205, nil},
			{"b66710c9b1c473ab", 103, 0, 6616, 472, nil},
		},
	}},
	{"geo-drift", [3][4]distPin{
		{
			{"65549f16ef46471d", 2400, 0, 22752, 0, nil},
			{"65549f16ef46471d", 2400, 0, 23263, 31, nil},
			{"65549f16ef46471d", 2400, 0, 24739, 147, nil},
			{"65549f16ef46471d", 2400, 0, 25729, 209, nil},
		},
		{
			{"65549f16ef46471d", 1008, 1392, 22752, 0, nil},
			{"65549f16ef46471d", 1008, 1392, 23263, 31, nil},
			{"65549f16ef46471d", 1008, 1392, 24963, 147, nil},
			{"65549f16ef46471d", 1008, 1392, 25953, 209, nil},
		},
		{
			{"65549f16ef46471d", 2400, 0, 22752, 0, nil},
			{"65549f16ef46471d", 2400, 0, 23263, 31, nil},
			{"65549f16ef46471d", 2400, 0, 24739, 147, nil},
			{"65549f16ef46471d", 2400, 0, 25729, 209, nil},
		},
	}},
	{"highdim-embed", [3][4]distPin{
		{
			{"d7b9f0a0af778109", 1500, 0, 23344, 0, nil},
			{"d7b9f0a0af778109", 1500, 0, 28755, 1491, nil},
			{"d7b9f0a0af778109", 1500, 0, 42883, 3955, nil},
			{"d7b9f0a0af778109", 1500, 0, 67051, 8699, nil},
		},
		{
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
		},
		{
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
			{err: ErrDistGridMemory},
		},
	}},
	{"all-border-ties", [3][4]distPin{
		{
			{"6b767dc17f0c0498", 264, 0, 3456, 0, nil},
			{"eb86f5d8a37c8d3e", 264, 0, 3467, 11, nil},
			{"8c90281a59280cb5", 264, 0, 3489, 33, nil},
			{"4846520c9d0f0d59", 264, 0, 3533, 77, nil},
		},
		{
			{"6b767dc17f0c0498", 168, 96, 3456, 0, nil},
			{"eb86f5d8a37c8d3e", 168, 96, 3515, 11, nil},
			{"8c90281a59280cb5", 168, 96, 3633, 33, nil},
			{"4846520c9d0f0d59", 168, 96, 3869, 77, nil},
		},
		{
			{"6b767dc17f0c0498", 264, 0, 3456, 0, nil},
			{"eb86f5d8a37c8d3e", 264, 0, 3467, 11, nil},
			{"8c90281a59280cb5", 264, 0, 3489, 33, nil},
			{"4846520c9d0f0d59", 264, 0, 3533, 77, nil},
		},
	}},
	{"bursty-arrival", [3][4]distPin{
		{
			{"2be5ded5c4f2526b", 2000, 0, 28800, 0, nil},
			{"2be5ded5c4f2526b", 2000, 0, 28807, 7, nil},
			{"2be5ded5c4f2526b", 2000, 0, 28817, 17, nil},
			{"2be5ded5c4f2526b", 2000, 0, 51157, 1381, nil},
		},
		{
			{"2be5ded5c4f2526b", 353, 1647, 28800, 0, nil},
			{"2be5ded5c4f2526b", 353, 1647, 28807, 7, nil},
			{"2be5ded5c4f2526b", 353, 1647, 28817, 17, nil},
			{"2be5ded5c4f2526b", 353, 1647, 51525, 1381, nil},
		},
		{
			{"2be5ded5c4f2526b", 2000, 0, 28800, 0, nil},
			{"2be5ded5c4f2526b", 2000, 0, 28807, 7, nil},
			{"2be5ded5c4f2526b", 2000, 0, 28817, 17, nil},
			{"2be5ded5c4f2526b", 2000, 0, 51157, 1381, nil},
		},
	}},
}

// muPin is μDBSCAN-D on one dataset at one rank count.
type muPin struct {
	hash                          string
	numMCs, queries, queriesSaved int64
	mergeBytes, haloPoints        int64
}

// TestMuDBSCANDPinned pins what μDBSCAN-D answers and how much work it
// reports on all 13 conformance and scenario datasets at p = 1, 2, 4 and 8:
// the labels+core hash, micro-clusters, queries, saved queries, merge bytes
// and halo copies. Both in-process schedules must meet the same pin, so a change to the rank pipeline or to the rank-local run that
// moves any of these fails here.
func TestMuDBSCANDPinned(t *testing.T) {
	cases := pinnedCases()
	if len(cases) != len(muPinned) {
		t.Fatalf("%d datasets, %d pins", len(cases), len(muPinned))
	}
	for k, c := range cases {
		for pi, p := range []int{1, 2, 4, 8} {
			for _, ex := range []struct {
				name string
				exec Exec
			}{{"serial", ExecSerial}, {"concurrent", ExecConcurrent}} {
				t.Run(fmt.Sprintf("%s/p=%d/%s", c.name, p, ex.name), func(t *testing.T) {
					pin := muPinned[k].pins[pi]
					if muPinned[k].name != c.name {
						t.Fatalf("pin %d is for %q", k, muPinned[k].name)
					}
					r, st, err := MuDBSCAND(c.pts, c.eps, c.minPts, p, Options{Seed: 7, Exec: ex.exec})
					if err != nil {
						t.Fatal(err)
					}
					got := muPin{baselineHash(r), st.NumMCs, st.Queries, st.QueriesSaved, st.MergeBytes, st.HaloPoints}
					if got != pin {
						t.Errorf("got %+v, pinned %+v", got, pin)
					}
				})
			}
		}
	}
}

// TestMergeIsComponentsOnly: every exact rank knows its halo copies' exact
// core flags before it settles its links — μDBSCAN-D before step 4, a
// baseline at the end of its loop — so it gives every link and owned border
// its cluster itself. Its merge traffic is then one flag byte per halo copy
// and at most one 16-byte edge per row of any rank's block, for all four
// algorithms on every pinned dataset at every rank count under both
// schedules.
func TestMergeIsComponentsOnly(t *testing.T) {
	algos := append([]struct {
		name string
		run  distAlgo
	}{{"muDBSCAN-D", MuDBSCAND}}, distBaselines...)
	for _, c := range pinnedCases() {
		for _, al := range algos {
			for _, p := range []int{1, 2, 4, 8} {
				for _, exec := range []Exec{ExecSerial, ExecConcurrent} {
					_, st, err := al.run(c.pts, c.eps, c.minPts, p, Options{Seed: 7, Exec: exec})
					if errors.Is(err, ErrDistGridMemory) {
						continue
					}
					if err != nil {
						t.Fatalf("%s %s p=%d exec=%v: %v", c.name, al.name, p, exec, err)
					}
					if limit := st.HaloPoints + 16*(int64(len(c.pts))+st.HaloPoints); st.MergeBytes > limit {
						t.Errorf("%s %s p=%d exec=%v: %d merge bytes (limit %d for %d halo copies)",
							c.name, al.name, p, exec, st.MergeBytes, limit, st.HaloPoints)
					}
				}
			}
		}
	}
}

// TestMuDBSCANDHaloPromotion: halo copies that only their owners can prove
// core — a strip of household-like 5-d data along every cut, and a dense
// blob ringed by points that are core only through points beyond every blob
// point's ε — are linked by the ranks' step 4 after the flag swap. The labels
// are brute force's at every rank and worker count.
func TestMuDBSCANDHaloPromotion(t *testing.T) {
	cases := []confDataset{{"household-like-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6}}
	for _, dim := range []int{2, 14} {
		at := func(x, y float64) geom.Point {
			p := make(geom.Point, dim)
			p[0], p[dim-1] = x, y
			return p
		}
		cases = append(cases, confDataset{fmt.Sprintf("ringed-blob-%dd", dim), []geom.Point{
			at(0, 0), at(0, 0), at(0.25, 0), at(0.375, 0), at(0, 0.375), at(-0.25, 0), at(0, -0.375),
			at(1.125, 0), at(0, 1.25), at(-2.5, 0), at(-0.75, 0),
			at(1.5, 0), at(1.625, 0), at(1.75, 0), at(0, 1.625), at(0, 1.75), at(0, 2),
		}, 1, 4})
	}
	for _, c := range cases {
		want, _ := dbscan.Brute(c.pts, c.eps, c.minPts)
		for _, p := range []int{2, 4, 8} {
			for _, workers := range []int{1, 2, 4} {
				got, _, err := MuDBSCAND(c.pts, c.eps, c.minPts, p, Options{Seed: 7, Core: core.Options{Workers: workers}})
				if err != nil {
					t.Fatalf("%s p=%d workers=%d: %v", c.name, p, workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s p=%d workers=%d: not brute force's labels (%v)", c.name, p, workers, clustering.Equivalent(want, got))
				}
			}
		}
	}
}

var muPinned = []struct {
	name string
	pins [4]muPin
}{
	{"blobs-3d", [4]muPin{
		{"d05c6c4478e8884f", 134, 236, 164, 4864, 0},
		{"d05c6c4478e8884f", 162, 249, 151, 7664, 176},
		{"d05c6c4478e8884f", 182, 238, 162, 9478, 294},
		{"d05c6c4478e8884f", 226, 242, 158, 13827, 563},
	}},
	{"blobs-2d-small-eps", [4]muPin{
		{"12d7c868fbc5c446", 128, 144, 206, 3872, 0},
		{"12d7c868fbc5c446", 139, 141, 209, 5017, 73},
		{"12d7c868fbc5c446", 147, 145, 205, 5786, 122},
		{"12d7c868fbc5c446", 176, 142, 208, 9724, 364},
	}},
	{"uniform-2d", [4]muPin{
		{"b26a8f28c97c4d8f", 150, 281, 19, 1808, 0},
		{"b26a8f28c97c4d8f", 174, 279, 21, 1940, 36},
		{"b26a8f28c97c4d8f", 197, 280, 20, 2043, 75},
		{"b26a8f28c97c4d8f", 234, 280, 20, 2245, 133},
	}},
	{"skewed-3d", [4]muPin{
		{"68d6b809346e7bcd", 66, 129, 221, 4944, 0},
		{"68d6b809346e7bcd", 91, 136, 214, 9048, 248},
		{"68d6b809346e7bcd", 121, 142, 208, 16414, 686},
		{"68d6b809346e7bcd", 179, 138, 212, 28258, 1394},
	}},
	{"all-noise", [4]muPin{
		{"7fbbb3cee1a34f39", 100, 100, 0, 0, 0},
		{"7fbbb3cee1a34f39", 101, 100, 0, 1, 1},
		{"7fbbb3cee1a34f39", 103, 100, 0, 3, 3},
		{"7fbbb3cee1a34f39", 107, 100, 0, 7, 7},
	}},
	{"border-tie-1d", [4]muPin{
		{"413c0541fd1a832d", 2, 3, 8, 144, 0},
		{"413c0541fd1a832d", 4, 3, 8, 181, 5},
		{"413c0541fd1a832d", 7, 1, 10, 320, 16},
		{"413c0541fd1a832d", 11, 2, 9, 469, 37},
	}},
	{"lattice-dup-2d", [4]muPin{
		{"b81a379f04a0845d", 36, 162, 18, 2864, 0},
		{"b81a379f04a0845d", 47, 162, 18, 4123, 75},
		{"b81a379f04a0845d", 75, 160, 20, 5893, 181},
		{"b81a379f04a0845d", 110, 153, 27, 9299, 387},
	}},
	{"cell-boundary-lattice-2d", [4]muPin{
		{"a2c19f9be7d51e78", 53, 176, 20, 3056, 0},
		{"a2c19f9be7d51e78", 66, 179, 17, 3722, 42},
		{"a2c19f9be7d51e78", 84, 179, 17, 4525, 93},
		{"a2c19f9be7d51e78", 122, 175, 21, 6048, 192},
	}},
	{"hot-cell-skew-2d", [4]muPin{
		{"b66710c9b1c473ab", 39, 39, 64, 1040, 0},
		{"b66710c9b1c473ab", 44, 38, 65, 2133, 69},
		{"b66710c9b1c473ab", 51, 38, 65, 4317, 205},
		{"b66710c9b1c473ab", 65, 38, 65, 8648, 472},
	}},
	{"geo-drift", [4]muPin{
		{"65549f16ef46471d", 871, 967, 1433, 22752, 0},
		{"65549f16ef46471d", 872, 967, 1433, 23263, 31},
		{"65549f16ef46471d", 888, 967, 1433, 24963, 147},
		{"65549f16ef46471d", 894, 967, 1433, 25953, 209},
	}},
	{"highdim-embed", [4]muPin{
		{"d7b9f0a0af778109", 41, 35, 1465, 23344, 0},
		{"d7b9f0a0af778109", 77, 35, 1465, 48115, 1491},
		{"d7b9f0a0af778109", 141, 35, 1465, 88979, 3955},
		{"d7b9f0a0af778109", 244, 35, 1465, 167979, 8699},
	}},
	{"all-border-ties", [4]muPin{
		{"6b767dc17f0c0498", 48, 72, 192, 3456, 0},
		{"6b767dc17f0c0498", 52, 72, 192, 3595, 11},
		{"6b767dc17f0c0498", 76, 67, 197, 3873, 33},
		{"6b767dc17f0c0498", 82, 56, 208, 4429, 77},
	}},
	{"bursty-arrival", [4]muPin{
		{"2be5ded5c4f2526b", 241, 283, 1717, 28800, 0},
		{"2be5ded5c4f2526b", 246, 283, 1717, 28807, 7},
		{"2be5ded5c4f2526b", 254, 280, 1720, 28817, 17},
		{"2be5ded5c4f2526b", 300, 291, 1709, 51765, 1381},
	}},
}

package mudbscan

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
	"mudbscan/internal/stream"
)

// The FuzzEngines input is a three-byte header — dimensionality, MinPts,
// lattice — followed by one byte per coordinate. ε is 1 and every coordinate
// is a small integer times 1/2 or 1/4, so all squared distances are exact
// binary fractions: pairs at exactly ε (excluded, the ball is open), centres
// at exactly 2ε and 3ε, and border points tied between clusters are the
// common case, and any disagreement between two engines is algorithmic, not
// rounding. The span keeps high-dimensional inputs dense: at d = 14 two
// points drawn from sixteen values an axis are never neighbors, from two
// values they usually are.
const (
	fuzzEps       = 1.0
	fuzzMaxPoints = 160
	fuzzHeader    = 3
)

var (
	// fuzzDims: the three unrolled kernels a tree sees most, and the two
	// generic-kernel (d > 4) dimensionalities of the repository benchmark.
	fuzzDims  = [...]int{1, 2, 3, 5, 14}
	fuzzSpans = [...]int{2, 3, 4, 6, 8, 16, 64, 256}
)

// fuzzDecode turns a fuzz input into a point set and MinPts; nil points when
// the input is too short to hold two points.
func fuzzDecode(b []byte) (pts []geom.Point, minPts int) {
	if len(b) < fuzzHeader {
		return nil, 0
	}
	dim := fuzzDims[int(b[0])%len(fuzzDims)]
	minPts = 1 + int(b[1])%8
	step := 0.5
	if b[2]&1 != 0 {
		step = 0.25
	}
	span := fuzzSpans[int(b[2]>>1)%len(fuzzSpans)]
	for body := b[fuzzHeader:]; len(body) >= dim && len(pts) < fuzzMaxPoints; body = body[dim:] {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = float64(int(body[j])%span) * step
		}
		pts = append(pts, p)
	}
	if len(pts) < 2 {
		return nil, 0
	}
	return pts, minPts
}

// fuzzEncode is the inverse used for the dataset-derived seeds: the case is
// scaled so that its ε becomes 1, thinned to at most fuzzMaxPoints points in
// arrival order, cut to the largest fuzz dimensionality it fills, and snapped
// onto the quarter lattice (full byte span, wrapping — a wrap moves a far
// point, it does not change what its near ones look like).
func fuzzEncode(pts []geom.Point, eps float64, minPts int) []byte {
	dimSel := 0
	for k, d := range fuzzDims {
		if d <= len(pts[0]) {
			dimSel = k
		}
	}
	dim := fuzzDims[dimSel]
	b := []byte{byte(dimSel), byte(minPts - 1), byte(len(fuzzSpans)-1)<<1 | 1}
	stride := (len(pts) + fuzzMaxPoints - 1) / fuzzMaxPoints
	for i := 0; i < len(pts); i += stride {
		for _, v := range pts[i][:dim] {
			b = append(b, byte(int64(math.Round(v/eps*4))))
		}
	}
	return b
}

// fuzzSeeds are the conformance table and the scenario corpus in the fuzz
// encoding, by name.
func fuzzSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	for _, c := range data.ConformanceCases() {
		seeds[c.Name] = fuzzEncode(c.Pts, c.Eps, c.MinPts)
	}
	for _, s := range data.Scenarios() {
		seeds[s.Name] = fuzzEncode(s.Pts, s.Eps, s.MinPts)
	}
	return seeds
}

// fuzzDenseSeeds are fat micro-clusters beside a sparse fringe at d = 3 and
// d = 5, MinPts 5 and 8: three points in four fall on the five lattice values
// across one ε of every axis (a blob a few micro-clusters wide, dozens of
// members each), the fourth anywhere in the 4ε box around it. That is where
// step 3's short query lives — whole micro-clusters it settles and walks at
// ε/2, rim and fringe points that come back short of MinPts and are queried
// again — and the mutator should start from it, not have to find it.
func fuzzDenseSeeds() [][]byte {
	var seeds [][]byte
	for _, dimSel := range []byte{2, 3} {
		for _, minPts := range []byte{5, 8} {
			rng := rand.New(rand.NewSource(int64(dimSel)<<8 | int64(minPts)))
			b := []byte{dimSel, minPts - 1, 5<<1 | 1} // step 1/4, span 16
			for i := 0; i < fuzzMaxPoints; i++ {
				for j := 0; j < fuzzDims[dimSel]; j++ {
					if i%4 == 3 {
						b = append(b, byte(rng.Intn(16)))
					} else {
						b = append(b, byte(6+rng.Intn(5)))
					}
				}
			}
			seeds = append(seeds, b)
		}
	}
	return seeds
}

// TestFuzzEnginesDenseSeeds: each dense seed puts queries on both sides of the
// short query's fallback — some are run again in full, most are not.
func TestFuzzEnginesDenseSeeds(t *testing.T) {
	for k, seed := range fuzzDenseSeeds() {
		pts, minPts := fuzzDecode(seed)
		_, st := core.Run(pts, fuzzEps, minPts, core.Options{})
		if len(pts) != fuzzMaxPoints || st.Requeries == 0 || 2*st.Requeries >= st.Queries {
			t.Errorf("seed %d (d=%d, MinPts %d): %d points, %d of %d queries rerun",
				k, len(pts[0]), minPts, len(pts), st.Requeries, st.Queries)
		}
	}
}

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite testdata/fuzz/FuzzEngines from the conformance and scenario datasets")

// TestFuzzEnginesSeedCorpus keeps the checked-in seed corpus equal to the
// datasets it was taken from: a generator change that moves a dataset fails
// here until the corpus is regenerated (go test -run TestFuzzEnginesSeedCorpus
// -update-fuzz-seeds .).
func TestFuzzEnginesSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEngines")
	for name, b := range fuzzSeeds() {
		path := filepath.Join(dir, "seed-"+name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
		if *updateFuzzSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; rerun with -update-fuzz-seeds", path)
		}
	}
}

// FuzzEngines is the cross-engine differential: one byte-derived point set
// through every exact engine the repository has — the μR-tree driver at 1, 2
// and 4 workers, the grid cell engine, μDBSCAN-D at 1, 2 and 4 ranks, and a
// landmark stream snapshot, then every Engine through Cluster at 1, 2 and 4
// workers — each held to brute force: same core flags, same
// core partition, same noise set, every border attached to a core within ε.
// It is the safety net under any change to *which distances are computed*.
func FuzzEngines(f *testing.F) {
	// A 5-d and a 14-d collinear run at half-ε spacing: centres at exactly
	// 2ε and 3ε of each other, members at exactly ε/2 and ε of theirs.
	for _, dimSel := range []byte{3, 4} {
		dim := fuzzDims[dimSel]
		b := []byte{dimSel, 2, 5 << 1} // MinPts 3, step 1/2, span 16
		for k := 0; k < 16; k++ {
			row := make([]byte, dim)
			row[0] = byte(k)
			b = append(b, row...)
			b = append(b, row...) // and a duplicate of every point
		}
		f.Add(b)
	}
	f.Add([]byte{1, 3, 2<<1 | 1, 0, 0, 1, 1, 2, 2, 3, 3, 0, 3, 3, 0, 1, 2, 2, 1, 0, 0, 3, 3})
	// Dense micro-clusters in a halo of noise singletons at d = 14, the shape
	// post-processing's dead class is for: two pairs of blobs (five copies of
	// a centre and one point leaning towards the other blob, 3ε/4 from its
	// opposite number and exactly ε from the opposite centre, so only step 4
	// joins a pair), and around each pair isolated points 2¼ε and 3¼ε out
	// along every axis — exactly ε from each other, inside some blob's 3ε.
	halo := []byte{4, 4, 7<<1 | 1} // MinPts 5, step 1/4, span 256
	for pair := byte(0); pair < 2; pair++ {
		at := func(axis int, v byte) {
			row := bytes.Repeat([]byte{24}, 14)
			row[1] += 32 * pair
			row[axis] = row[axis] - 24 + v
			halo = append(halo, row...)
		}
		for _, x := range []byte{22, 22, 22, 22, 22, 23, 26, 27, 27, 27, 27, 27} {
			at(0, x)
		}
		for axis := 0; axis < 14; axis++ {
			for _, v := range []byte{24 - 13, 24 - 9, 24 + 9, 24 + 13} {
				at(axis, v)
			}
		}
	}
	f.Add(halo)
	// A micro-cluster's MinPts-radius at its boundary (DESIGN.md §8, cut (g)),
	// at d = 2 and 5, MinPts 4: a centre, three members ε/4 out and one 3ε/4
	// out, for which d + r_k is exactly ε; and 5ε away a centre, two points
	// ε/4 out and one 3ε/4 the other way, so that MinPts−1 members lie within
	// ε/4 and either of the two has only those three within ε — core if the
	// (MinPts−1)-th distance were taken for r_k.
	for _, dimSel := range []byte{1, 3} {
		b := []byte{dimSel, 3, 6<<1 | 1} // MinPts 4, step 1/4, span 64
		for _, xy := range [][2]byte{{4, 0}, {5, 0}, {5, 0}, {5, 0}, {7, 0}, {4, 20}, {5, 20}, {1, 20}, {5, 20}} {
			row := make([]byte, fuzzDims[dimSel])
			row[0], row[1] = xy[0], xy[1]
			b = append(b, row...)
		}
		f.Add(b)
	}
	for _, seed := range fuzzDenseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pts, minPts := fuzzDecode(b)
		if pts == nil {
			return
		}
		want, _ := dbscan.Brute(pts, fuzzEps, minPts)
		check := func(engine string, got *clustering.Result) {
			t.Helper()
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s (n=%d d=%d minPts=%d): not brute force's result (%v)",
					engine, len(pts), len(pts[0]), minPts, clustering.Equivalent(want, got))
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got, _ := core.Run(pts, fuzzEps, minPts, core.Options{Workers: workers})
			check(fmt.Sprintf("core workers=%d", workers), got)
		}
		got, _ := cell.Run(pts, fuzzEps, minPts, cell.Options{Workers: 1})
		check("cell", got)
		for _, ranks := range []int{1, 2, 4} {
			got, _, err := dist.MuDBSCAND(pts, fuzzEps, minPts, ranks, dist.Options{Seed: 1})
			if err != nil {
				t.Fatalf("dist ranks=%d: %v", ranks, err)
			}
			check(fmt.Sprintf("dist ranks=%d", ranks), got)
		}
		c, err := stream.New(len(pts[0]), fuzzEps, minPts, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := c.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		check("stream", c.Snapshot().Result())
		// The one dispatch: every Engine value through Cluster, so an engine
		// added to the enum is fuzzed without editing this test.
		rows := toRows(pts)
		for e := EngineAuto; int(e) < len(engineNames); e++ {
			for _, workers := range []int{1, 2, 4} {
				got, err := Cluster(rows, fuzzEps, minPts, WithEngine(e), WithWorkers(workers))
				if err != nil {
					t.Fatalf("Cluster %v@%d: %v", e, workers, err)
				}
				check(fmt.Sprintf("Cluster %v@%d", e, workers), got)
			}
		}
	})
}

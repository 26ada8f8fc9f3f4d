package mudbscan

import (
	"math/rand"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
)

// Metamorphic properties of DBSCAN: rigid motions of the data leave the
// clustering untouched, and scaling the data together with ε does too.
// These catch subtle coordinate-handling bugs that example-based tests
// cannot.

func transform(points [][]float64, scale float64, shift []float64) [][]float64 {
	out := make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, len(p))
		for j, v := range p {
			q[j] = v*scale + shift[j]
		}
		out[i] = q
	}
	return out
}

func TestTranslationInvariance(t *testing.T) {
	rows := toRows(data.Blobs(800, 3, 4, 0.3, 0.2, 17))
	eps, minPts := 0.5, 5
	base, err := Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range [][]float64{{100, -50, 3}, {-1e4, 1e4, 0.5}} {
		moved := transform(rows, 1, shift)
		got, err := Cluster(moved, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if err := clustering.Equivalent(base, got); err != nil {
			t.Fatalf("translation %v changed the clustering: %v", shift, err)
		}
	}
}

func TestScaleInvariance(t *testing.T) {
	rows := toRows(data.Blobs(800, 2, 3, 0.3, 0.2, 19))
	eps, minPts := 0.5, 5
	base, err := Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	// Powers of two scale losslessly in floating point, so the exact
	// boundary comparisons are preserved bit-for-bit.
	for _, s := range []float64{0.0009765625, 8, 4096} {
		scaled := transform(rows, s, []float64{0, 0})
		got, err := Cluster(scaled, eps*s, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if err := clustering.Equivalent(base, got); err != nil {
			t.Fatalf("scale %g changed the clustering: %v", s, err)
		}
	}
}

func TestAxisPermutationInvariance(t *testing.T) {
	rows := toRows(data.Blobs(600, 3, 3, 0.3, 0.2, 23))
	eps, minPts := 0.5, 5
	base, err := Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	swapped := make([][]float64, len(rows))
	for i, p := range rows {
		swapped[i] = []float64{p[2], p[0], p[1]}
	}
	got, err := Cluster(swapped, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	if err := clustering.Equivalent(base, got); err != nil {
		t.Fatalf("axis permutation changed the clustering: %v", err)
	}
}

func TestDuplicatedDatasetDoublesDensity(t *testing.T) {
	// Appending an exact copy of every point can only promote points
	// (neighborhood sizes double): no former core may become border/noise.
	rows := toRows(data.Blobs(300, 2, 3, 0.3, 0.3, 29))
	eps, minPts := 0.5, 5
	base, err := Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	doubled := append(append([][]float64{}, rows...), rows...)
	got, err := Cluster(doubled, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if base.Core[i] && !got.Core[i] {
			t.Fatalf("point %d lost core status after densification", i)
		}
		if base.Labels[i] != clustering.Noise && got.Labels[i] == clustering.Noise {
			t.Fatalf("point %d fell to noise after densification", i)
		}
		// Twin copies must agree on core status.
		if got.Core[i] != got.Core[i+len(rows)] {
			t.Fatalf("point %d and its twin disagree on core status", i)
		}
	}
}

// runMode dispatches one of the three execution modes so each metamorphic
// relation can be asserted against every mode, not just the sequential one.
func runMode(t *testing.T, mode string, rows [][]float64, eps float64, minPts int) *Result {
	t.Helper()
	var (
		r   *Result
		err error
	)
	switch mode {
	case "seq":
		r, err = Cluster(rows, eps, minPts)
	case "parallel":
		r, err = Cluster(rows, eps, minPts, WithEngine(EngineShared), WithWorkers(4))
	case "dist":
		r, _, err = ClusterDistributed(rows, eps, minPts, 4, WithSeed(5))
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return r
}

var allModes = []string{"seq", "parallel", "dist"}

// TestCombinedTranslationScalingAllModes composes the two rigid relations:
// shifting and scaling by a power of two (lossless in floating point) with
// ε scaled alongside must leave every mode's clustering unchanged.
func TestCombinedTranslationScalingAllModes(t *testing.T) {
	rows := toRows(data.Blobs(700, 3, 4, 0.3, 0.2, 37))
	eps, minPts := 0.5, 5
	base, err := Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	const s = 16.0
	moved := transform(rows, s, []float64{-512, 1024, 0.25})
	for _, mode := range allModes {
		got := runMode(t, mode, moved, eps*s, minPts)
		if err := clustering.Equivalent(base, got); err != nil {
			t.Fatalf("%s: translation+scaling changed the clustering: %v", mode, err)
		}
	}
}

// TestPointDuplicationAllModes extends the densification relation to every
// mode: appending an exact copy of each point may only promote points, and
// twin copies must agree on core status — also across the rank partitioning
// of the distributed mode, where twins can land on different ranks.
func TestPointDuplicationAllModes(t *testing.T) {
	rows := toRows(data.Blobs(300, 2, 3, 0.3, 0.3, 41))
	eps, minPts := 0.5, 5
	doubled := append(append([][]float64{}, rows...), rows...)
	for _, mode := range allModes {
		base := runMode(t, mode, rows, eps, minPts)
		got := runMode(t, mode, doubled, eps, minPts)
		for i := range rows {
			if base.Core[i] && !got.Core[i] {
				t.Fatalf("%s: point %d lost core status after densification", mode, i)
			}
			if base.Labels[i] != clustering.Noise && got.Labels[i] == clustering.Noise {
				t.Fatalf("%s: point %d fell to noise after densification", mode, i)
			}
			if got.Core[i] != got.Core[i+len(rows)] {
				t.Fatalf("%s: point %d and its twin disagree on core status", mode, i)
			}
			if got.Core[i] && got.Labels[i] != got.Labels[i+len(rows)] {
				t.Fatalf("%s: core point %d and its twin landed in different clusters", mode, i)
			}
		}
	}
}

// TestInputPermutationInvarianceAllModes feeds every mode the same points in
// a shuffled order: after mapping labels back through the permutation the
// clustering must be equivalent to the unshuffled run. This pins that no
// mode's output depends on point order beyond DBSCAN's permitted border
// ambiguity (which Equivalent accounts for).
func TestInputPermutationInvarianceAllModes(t *testing.T) {
	rows := toRows(data.Blobs(600, 3, 3, 0.3, 0.2, 43))
	eps, minPts := 0.5, 5
	rng := rand.New(rand.NewSource(99))
	perm := rng.Perm(len(rows))
	shuffled := make([][]float64, len(rows))
	for i, j := range perm {
		shuffled[j] = rows[i]
	}
	for _, mode := range allModes {
		base := runMode(t, mode, rows, eps, minPts)
		got := runMode(t, mode, shuffled, eps, minPts)
		unshuffled := &Result{
			Labels:      make([]int, len(rows)),
			Core:        make([]bool, len(rows)),
			NumClusters: got.NumClusters,
		}
		for i, j := range perm {
			unshuffled.Labels[i] = got.Labels[j]
			unshuffled.Core[i] = got.Core[j]
		}
		if err := clustering.Equivalent(base, unshuffled); err != nil {
			t.Fatalf("%s: input permutation changed the clustering: %v", mode, err)
		}
	}
}

func TestDistributedMatchesSequentialOnTransformedData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := toRows(data.Blobs(700, 3, 4, 0.3, 0.2, 31))
	shift := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	moved := transform(rows, 3, shift)
	eps, minPts := 1.5, 5
	seq, err := Cluster(moved, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := ClusterDistributed(moved, eps, minPts, 8, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := clustering.Equivalent(seq, par); err != nil {
		t.Fatal(err)
	}
}

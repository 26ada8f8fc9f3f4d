package stream

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func feed(t *testing.T, c *Clusterer, rng *rand.Rand, n int, cx, cy, spread float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 1, 5, Options{}); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := New(2, 0, 5, Options{}); err == nil {
		t.Error("eps 0 should error")
	}
	if _, err := New(2, math.Inf(1), 5, Options{}); err == nil {
		t.Error("infinite eps should error")
	}
	if _, err := New(2, 1, 0, Options{}); err == nil {
		t.Error("minPts 0 should error")
	}
	if _, err := New(2, 1, 5, Options{Lambda: -1}); err == nil {
		t.Error("negative lambda should error")
	}
	if _, err := New(2, 1, 5, Options{Lambda: 0.1, PruneBelow: 1.5}); err == nil {
		t.Error("PruneBelow >= 1 should error")
	}
	c, err := New(2, 1, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]float64{1}); err == nil {
		t.Error("dim mismatch should error")
	}
	if err := c.Add([]float64{math.NaN(), 0}); err == nil {
		t.Error("NaN coordinate should error")
	}
	if err := c.Add([]float64{math.Inf(-1), 0}); err == nil {
		t.Error("infinite coordinate should error")
	}
	if err := c.AddAt([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("NaN timestamp should error")
	}
	if err := c.AddAt([]float64{1, 2}, -1); err == nil {
		t.Error("negative timestamp should error")
	}
	if err := c.AddAt([]float64{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAt([]float64{1, 2}, 1); err == nil {
		t.Error("time going backwards should error")
	}
	if got := c.Stats().Accepted; got != 1 {
		t.Errorf("rejected points must not count as accepted, got %d", got)
	}
}

func TestTwoStreamsTwoClusters(t *testing.T) {
	c, err := New(2, 0.5, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	feed(t, c, rng, 2000, 0, 0, 0.3)
	feed(t, c, rng, 2000, 20, 20, 0.3)
	if got := c.Stats().Accepted; got != 4000 {
		t.Fatalf("Stats().Accepted=%d", got)
	}
	s := c.Snapshot()
	if s.Len() != 4000 {
		t.Fatalf("landmark window holds %d points, want 4000", s.Len())
	}
	if s.NumClusters != 2 {
		t.Fatalf("clusters=%d want 2", s.NumClusters)
	}
	a := s.Assign([]float64{0.1, -0.1})
	b := s.Assign([]float64{20.1, 19.9})
	if a == -1 || b == -1 || a == b {
		t.Fatalf("assignments a=%d b=%d", a, b)
	}
	if s.Assign([]float64{10, 10}) != -1 {
		t.Fatal("empty region should assign noise")
	}
}

func TestLandmarkWindowNeverForgets(t *testing.T) {
	c, _ := New(2, 0.5, 10, Options{})
	rng := rand.New(rand.NewSource(2))
	feed(t, c, rng, 1000, 0, 0, 0.2)
	feed(t, c, rng, 5000, 30, 30, 0.2)
	s := c.Snapshot()
	if s.NumClusters != 2 {
		t.Fatalf("landmark window lost a cluster: %d", s.NumClusters)
	}
	if st := c.Stats(); st.EvictedPoints != 0 || st.Retained != 6000 {
		t.Fatalf("landmark window evicted: %+v", st)
	}
	if s.Len() != 6000 {
		t.Fatalf("landmark window holds %d points, want 6000", s.Len())
	}
}

func TestDampedWindowForgets(t *testing.T) {
	// Horizon = ln(1/0.1)/0.01 ≈ 230 insertions: after the long drift the
	// origin cluster has fully expired.
	c, _ := New(2, 0.5, 10, Options{Lambda: 0.01})
	rng := rand.New(rand.NewSource(3))
	feed(t, c, rng, 1000, 0, 0, 0.2)
	feed(t, c, rng, 20000, 30, 30, 0.2)
	s := c.Snapshot()
	if s.NumClusters != 1 {
		t.Fatalf("damped window should forget the old cluster, got %d", s.NumClusters)
	}
	if s.Assign([]float64{0, 0}) != -1 {
		t.Fatal("stale region should no longer assign")
	}
	if s.Len() >= 1000 {
		t.Fatalf("window of %d points exceeds the decay horizon", s.Len())
	}
	st := c.Stats()
	if st.EvictedPoints == 0 {
		t.Fatalf("expected evictions under decay: %+v", st)
	}
	if st.Accepted != 21000 {
		t.Fatalf("accepted %d want 21000", st.Accepted)
	}
	if st.Retained != s.Len() {
		t.Fatalf("retained %d != window %d", st.Retained, s.Len())
	}
}

func TestHighDimStream(t *testing.T) {
	c, _ := New(16, 5, 5, Options{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := make([]float64, 16)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if s.NumClusters != 1 {
		t.Fatalf("one dense gaussian should be one cluster, got %d", s.NumClusters)
	}
	if s.Dim != 16 || s.Points.Dim() != 16 {
		t.Fatalf("snapshot dim %d/%d want 16", s.Dim, s.Points.Dim())
	}
}

func TestDeterministicSnapshots(t *testing.T) {
	mk := func() *Snapshot {
		c, _ := New(2, 0.5, 8, Options{})
		rng := rand.New(rand.NewSource(6))
		feed(t, c, rng, 1500, 0, 0, 0.4)
		feed(t, c, rng, 1500, 15, 15, 0.4)
		return c.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("snapshots differ across identical runs")
	}
}

func TestSnapshotSeqsAndTimes(t *testing.T) {
	c, _ := New(1, 1, 2, Options{})
	for i := 0; i < 50; i++ {
		if err := c.Add([]float64{float64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if s.Len() != 50 {
		t.Fatalf("window %d want 50", s.Len())
	}
	for i := 0; i < 50; i++ {
		if s.Seqs[i] != int64(i) {
			t.Fatalf("Seqs[%d]=%d want %d (arrival order)", i, s.Seqs[i], i)
		}
		if s.Times[i] != float64(i+1) {
			t.Fatalf("Times[%d]=%g want %d", i, s.Times[i], i+1)
		}
		if got := s.Points.Coord(i, 0); got != float64(i%5) {
			t.Fatalf("Points[%d]=%g want %d", i, got, i%5)
		}
	}
}

// TestAddWarmPathAllocs gates the warm ingest path: Add appends to the
// arrival log and must stay amortized allocation-free.
func TestAddWarmPathAllocs(t *testing.T) {
	c, err := New(2, 1, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 4096)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 8, rng.Float64() * 8}
	}
	for r := 0; r < 8; r++ {
		for _, p := range pts {
			if err := c.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		if err := c.Add(pts[i%len(pts)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 0.5 {
		t.Fatalf("warm Add allocates %.3f objects/op, want amortized < 0.5", avg)
	}
}

package stream

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotIsPureObservation pins that Snapshot never perturbs state, in
// either window mode: a clusterer snapshotted after every few insertions
// ends with a snapshot bit-identical to one that only snapshots at the end.
func TestSnapshotIsPureObservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"landmark", Options{}},
		{"damped", Options{Lambda: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(snapEvery int) *Snapshot {
				c, err := New(2, 0.5, 6, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(12))
				for i := 0; i < 2000; i++ {
					p := []float64{rng.NormFloat64(), rng.NormFloat64()}
					if err := c.Add(p); err != nil {
						t.Fatal(err)
					}
					if snapEvery > 0 && i%snapEvery == 0 {
						c.Snapshot() // observation only; must not perturb state
					}
				}
				return c.Snapshot()
			}
			quiet, noisy := mk(0), mk(97)
			if !reflect.DeepEqual(quiet, noisy) {
				t.Fatal("interleaved snapshots changed the final snapshot")
			}
		})
	}
}

// TestDampedHorizonBoundary pins the retention rule bit-exactly: a point is
// live while its age is at most ln(1/PruneBelow)/Lambda (closed at the
// horizon) and expires one ulp beyond it. Two points share time 0, so the
// late arrival must evict both at once.
func TestDampedHorizonBoundary(t *testing.T) {
	const lambda, prune = 0.1, 0.1
	horizon := math.Log(1/prune) / lambda // same computation as the clusterer

	mk := func() *Clusterer {
		c, err := New(2, 0.5, 3, Options{Lambda: lambda, PruneBelow: prune})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][]float64{{0, 0}, {0, 1}} {
			if err := c.AddAt(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	c := mk()
	if err := c.AddAt([]float64{100, 100}, horizon); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Len() != 3 {
		t.Fatalf("points at age exactly horizon must still be live, window=%d", s.Len())
	}

	c = mk()
	if err := c.AddAt([]float64{100, 100}, math.Nextafter(horizon, math.Inf(1))); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Len() != 1 {
		t.Fatalf("points one ulp past the horizon must have expired, window=%d", s.Len())
	}
}

// TestDampedEvictionReclaimsMemory pins exact eviction: under a drifting
// damped stream the log holds exactly the points whose age is within the
// horizon after every insertion, and its backing arrays stay within a
// constant factor of the window rather than of the history.
func TestDampedEvictionReclaimsMemory(t *testing.T) {
	const lambda, n = 0.01, 10000
	horizon := math.Log(1/defaultPruneBelow) / lambda
	c, err := New(2, 0.4, 5, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	oldest := 1 // the earliest live timestamp; Add stamps point i with i
	for i := 1; i <= n; i++ {
		if err := c.Add([]float64{float64(i) * 0.01, rng.NormFloat64() * 0.1}); err != nil {
			t.Fatal(err)
		}
		for float64(oldest) < float64(i)-horizon {
			oldest++
		}
		live := i - oldest + 1
		if len(c.times) != live || len(c.coords) != 2*live {
			t.Fatalf("after %d adds the log holds %d points, want the %d live", i, len(c.times), live)
		}
		if cap(c.times) > 4*live || cap(c.coords) > 4*2*live {
			t.Fatalf("after %d adds the log's capacity is %d/%d for %d live points",
				i, cap(c.times), cap(c.coords), live)
		}
	}
	s := c.Snapshot()
	st := c.Stats()
	if st.Accepted != n || st.Retained != s.Len() {
		t.Fatalf("accepted %d retained %d, window %d", st.Accepted, st.Retained, s.Len())
	}
	if st.EvictedPoints+int64(st.Retained) != st.Accepted {
		t.Fatalf("evicted %d + retained %d != accepted %d",
			st.EvictedPoints, st.Retained, st.Accepted)
	}
}

package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/geom"
)

// TestConcurrentIngestSoak hammers one clusterer with N producer goroutines
// delivering bursty arrivals while a snapshotter observes mid-stream. Run
// under -race this is the tier's race soak; in any mode it checks that every
// snapshot is a contiguous run of arrivals whose timestamps never decrease,
// that the final window is complete (landmark) and its counters add up, and
// that the final clustering is internally valid and byte-identical to
// sequential μDBSCAN's on the window.
func TestConcurrentIngestSoak(t *testing.T) {
	centers := [][2]float64{{0, 0}, {8, 8}, {16, 0}, {0, 16}, {16, 16}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"landmark", Options{}},
		{"damped", Options{Lambda: 0.001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const eps, minPts = 0.5, 8
			c, err := New(2, eps, minPts, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			const producers = 8
			const perProducer = 2500

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // mid-stream snapshotter
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := c.Snapshot()
					if err := s.Result().Validate(); err != nil {
						t.Errorf("mid-stream snapshot invalid: %v", err)
						return
					}
					if err := checkArrivalOrder(s); err != nil {
						t.Errorf("mid-stream snapshot: %v", err)
						return
					}
					c.Stats()
				}
			}()
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					sent := 0
					for sent < perProducer {
						// Bursty arrival: a run of points from one center,
						// then switch.
						ctr := centers[rng.Intn(len(centers))]
						burst := 20 + rng.Intn(60)
						for b := 0; b < burst && sent < perProducer; b++ {
							p := []float64{
								ctr[0] + rng.NormFloat64()*0.2,
								ctr[1] + rng.NormFloat64()*0.2,
							}
							if err := c.Add(p); err != nil {
								t.Errorf("Add: %v", err)
								return
							}
							sent++
						}
					}
				}(g)
			}
			// Wait for producers, then stop the snapshotter.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			defer func() { <-done }()
			defer close(stop)

			// Producers finish on their own; poll the accepted counter.
			for c.Stats().Accepted < producers*perProducer {
				time.Sleep(time.Millisecond)
			}

			s := c.Snapshot()
			if tc.opts.Lambda == 0 && s.Len() != producers*perProducer {
				t.Fatalf("landmark window %d want %d", s.Len(), producers*perProducer)
			}
			if err := checkArrivalOrder(s); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Retained != s.Len() || st.EvictedPoints+int64(st.Retained) != st.Accepted {
				t.Fatalf("stats %+v do not add up for a window of %d", st, s.Len())
			}
			res := s.Result()
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			window := make([]geom.Point, s.Len())
			for i := range window {
				window[i] = s.Points.Point(i)
			}
			if want, _ := core.Run(window, eps, minPts, core.Options{}); !reflect.DeepEqual(want, res) {
				t.Fatalf("final snapshot not sequential μDBSCAN's result (%v)", clustering.Equivalent(want, res))
			}
			if s.NumClusters != len(centers) {
				t.Fatalf("clusters=%d want %d", s.NumClusters, len(centers))
			}
		})
	}
}

// checkArrivalOrder reports whether a snapshot's window is a contiguous run
// of arrival sequence numbers with non-decreasing timestamps.
func checkArrivalOrder(s *Snapshot) error {
	for i := 1; i < s.Len(); i++ {
		if s.Seqs[i] != s.Seqs[i-1]+1 {
			return fmt.Errorf("seqs %d, %d at rows %d, %d are not consecutive", s.Seqs[i-1], s.Seqs[i], i-1, i)
		}
		if s.Times[i] < s.Times[i-1] {
			return fmt.Errorf("time %g at row %d precedes %g at row %d", s.Times[i], i, s.Times[i-1], i-1)
		}
	}
	return nil
}

// TestNoGoroutineLeak pins that the streaming tier spawns no goroutines of
// its own: after heavy ingest, evictions and snapshots, the goroutine
// count returns to its baseline.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		c, err := New(2, 0.5, 5, Options{Lambda: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 20000; i++ {
			if err := c.Add([]float64{rng.Float64() * 30, rng.Float64() * 30}); err != nil {
				t.Fatal(err)
			}
			if i%5000 == 0 {
				c.Snapshot()
			}
		}
		c.Snapshot()
		c.Stats()
	}()
	runtime.GC()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}

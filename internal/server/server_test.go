package server

import (
	"errors"
	"runtime"
	"testing"
)

// TestResolveEngineAndParam pins the wire→engine resolution table: auto's
// profile-then-size cascade (cell for low-d data, otherwise seq below the
// threshold, shared from there), the deterministic shared default, dist's
// default and cap, and the forced zero parameter for seq and stream. What
// the library refuses (a grid-unrepresentable cell job, a rank count that
// is not a power of two) passes resolve and is refused when the job runs. Real datasets drive the auto rows because
// resolution profiles the data itself, not just its size.
func TestResolveEngineAndParam(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Close() })

	mk := func(dim, n int) *dataset {
		t.Helper()
		coords := make([]float64, 0, dim*n)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				coords = append(coords, float64(i)+0.1*float64(j))
			}
		}
		id, err := srv.store.put(dim, coords)
		if err != nil {
			t.Fatal(err)
		}
		ds, ok := srv.store.get(id)
		if !ok {
			t.Fatal("stored dataset missing")
		}
		return ds
	}
	lowDim := mk(2, 6)              // d ≤ 3: the selector always picks cell
	highDim := mk(8, 6)             // d > 7, below threshold: falls through to seq
	highBig := mk(8, autoThreshold) // d > 7, at threshold: shared at GOMAXPROCS

	// Coordinates 1e30 apart at eps 0.5: beyond what the grid can index.
	farID, err := srv.store.put(2, []float64{0, 0, 1e30, 0, 2e30, 0, 3e30, 0})
	if err != nil {
		t.Fatal(err)
	}
	far, _ := srv.store.get(farID)

	cases := []struct {
		engine    Engine
		param     int
		ds        *dataset
		wantE     Engine
		wantParam int
		wantErr   error
	}{
		{EngineAuto, 0, lowDim, EngineCell, 0, nil},
		{EngineAuto, 0, highDim, EngineSeq, 0, nil},
		{EngineAuto, 0, highBig, EngineShared, runtime.GOMAXPROCS(0), nil},
		{EngineSeq, 7, lowDim, EngineSeq, 0, nil},       // seq ignores param
		{EngineStream, 0, lowDim, EngineStream, 0, nil}, // and so does stream
		{EngineStream, 3, lowDim, EngineStream, 0, nil},
		{EngineStream, maxSharedWork + 1, lowDim, EngineStream, 0, nil},
		{EngineShared, 0, lowDim, EngineShared, 1, nil}, // deterministic default
		{EngineShared, 4, lowDim, EngineShared, 4, nil},
		{EngineShared, -1, lowDim, 0, 0, ErrBadRequest},
		{EngineShared, maxSharedWork + 1, lowDim, 0, 0, ErrBadRequest},
		{EngineCell, 0, highDim, EngineCell, 0, nil}, // 0 = engine default
		{EngineCell, 4, lowDim, EngineCell, 4, nil},
		{EngineCell, -1, lowDim, 0, 0, ErrBadRequest},
		{EngineCell, 0, far, EngineCell, 0, nil}, // the library refuses it at run time
		{EngineAuto, 0, far, EngineSeq, 0, nil},  // low d, but auto must not pick cell
		{EngineCell, maxSharedWork + 1, lowDim, 0, 0, ErrBadRequest},
		{EngineDist, 0, lowDim, EngineDist, 4, nil},
		{EngineDist, 8, lowDim, EngineDist, 8, nil},
		{EngineDist, 3, lowDim, EngineDist, 3, nil}, // the library refuses it at run time
		{EngineDist, maxDistRanks * 2, lowDim, 0, 0, ErrBadRequest},
		{EngineCell + 1, 0, lowDim, 0, 0, ErrUnknownEngine},
		{Engine(200), 0, lowDim, 0, 0, ErrUnknownEngine},
	}
	for _, c := range cases {
		e, p, err := srv.resolve(c.engine, c.param, c.ds, 0.5, 5)
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("resolve(%v,%d,n=%d): err %v, want %v", c.engine, c.param, c.ds.set.Len(), err, c.wantErr)
			}
			continue
		}
		if err != nil || e != c.wantE || p != c.wantParam {
			t.Fatalf("resolve(%v,%d,n=%d) = (%v,%d,%v), want (%v,%d,nil)",
				c.engine, c.param, c.ds.set.Len(), e, p, err, c.wantE, c.wantParam)
		}
	}
}

// TestMetricsJobRejected pins the typed-rejection counter switch.
func TestMetricsJobRejected(t *testing.T) {
	var m metrics
	m.jobRejected(ErrQueueFull)
	m.jobRejected(ErrQueueFull)
	m.jobRejected(ErrOverloaded)
	m.jobRejected(ErrShuttingDown)
	m.jobRejected(errors.New("untyped")) // must not count anywhere
	if st := m.snapshot(); st.RejQueueFull != 2 || st.RejOverloaded != 1 || st.RejShutdown != 1 {
		t.Fatalf("counters %d/%d/%d, want 2/1/1",
			st.RejQueueFull, st.RejOverloaded, st.RejShutdown)
	}
}

// TestEngineStringUnknown: values outside the enum must render, not panic.
func TestEngineStringUnknown(t *testing.T) {
	if s := Engine(99).String(); s == "" {
		t.Fatal("unknown engine rendered empty")
	}
}

// TestIndexCacheEviction: the μR-tree cache must evict LRU and rebuild on
// the next request for the evicted key.
func TestIndexCacheEviction(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Close() })
	id, err := srv.store.put(2, []float64{0, 0, 1, 1, 2, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := srv.store.get(id)
	if !ok {
		t.Fatal("stored dataset missing")
	}

	c := newIndexCache(2)
	k1 := indexKey{id: id, epsBits: epsBitsOf(0.5), minPts: 2}
	k2 := indexKey{id: id, epsBits: epsBitsOf(0.6), minPts: 2}
	k3 := indexKey{id: id, epsBits: epsBitsOf(0.7), minPts: 2}
	ix1 := c.build(k1, ds, 0.5, 2)
	if again := c.build(k1, ds, 0.5, 2); again != ix1 {
		t.Fatal("second build of one key did not hit the cache")
	}
	c.build(k2, ds, 0.6, 2)
	c.build(k3, ds, 0.7, 2) // evicts k1
	hits, misses, evictions, size := c.counters()
	if hits != 1 || misses != 3 || evictions != 1 || size != 2 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d size=%d, want 1/3/1/2",
			hits, misses, evictions, size)
	}
	if rebuilt := c.build(k1, ds, 0.5, 2); rebuilt == ix1 {
		t.Log("note: rebuild returned an identical pointer (allocator reuse); still correct")
	}
}

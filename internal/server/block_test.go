package server

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mudbscan/internal/data"
)

// TestBlockStoreAdoptsAndIndexShares: the store keeps the block it is
// handed, and the ε-query index built over a stored dataset reads that same
// block: one copy of the coordinates from Put to the μR-tree.
func TestBlockStoreAdoptsAndIndexShares(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Close() })
	coords := []float64{0, 0, 0.1, 0, 0, 0.1, 5, 5, 5.1, 5}
	id, err := srv.store.put(2, coords)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := srv.store.get(id)
	if &ds.set.Data()[0] != &coords[0] {
		t.Fatal("the store copied the block")
	}
	ix := srv.indexes.build(indexKey{id: id, epsBits: epsBitsOf(0.5), minPts: 2}, ds, 0.5, 2)
	if &ix.Points.Data()[0] != &coords[0] {
		t.Fatal("the ε-query index copied the stored block")
	}
}

// TestBlockReadOnlyUnderJobsAndQueries: jobs on every engine and 100
// ε-queries, all served from the one stored block, leave it bit-identical.
func TestBlockReadOnlyUnderJobsAndQueries(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 2})
	cl := dialTenant(t, addr, "readonly")
	pts := data.HouseholdLike(1500, 5, 3)
	id, err := cl.Put(toRows(pts))
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := srv.store.get(id)
	if !ok {
		t.Fatal("stored dataset missing")
	}
	before := append([]float64(nil), ds.set.Data()...)

	const eps, minPts = 0.25, 6
	for _, e := range []struct {
		engine Engine
		param  int
	}{{EngineSeq, 0}, {EngineShared, 2}, {EngineCell, 1}, {EngineAuto, 0}, {EngineStream, 0}, {EngineDist, 2}} {
		if _, err := cl.Cluster(id, eps, minPts, e.engine, e.param); err != nil {
			t.Fatalf("%v@%d: %v", e.engine, e.param, err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 100; q++ {
		if _, err := cl.EpsQuery(id, eps, minPts, pts[rng.Intn(len(pts))]); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range ds.set.Data() {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("coordinate %d of the stored block changed", i)
		}
	}
}

// TestBlockPutAllocBudget: an upload holds three dataset-sized buffers in
// all — the client's frame, built in one buffer; the server's copy of the
// frame off the socket; and the block the body is decoded into once and the
// store adopts. Client and server share the process here, so the budget
// covers both ends.
func TestBlockPutAllocBudget(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	cl := dialTenant(t, addr, "alloc")
	const n, dim = 20000, 5
	rows := toRows(data.HouseholdLike(n, dim, 2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cl.Put(rows); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(3*8*n*dim+256<<10)
	t.Logf("Put of %d×%d allocated %d bytes, budget %d", n, dim, got, budget)
	if got > budget {
		t.Errorf("Put allocated %d bytes, budget %d", got, budget)
	}
}

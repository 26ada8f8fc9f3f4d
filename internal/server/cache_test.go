package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"mudbscan/internal/data"
)

func rkey(b byte) resultKey { return resultKey{id: DatasetID{b}, epsBits: 1, minPts: 3} }

// TestResultCacheCopyOnHit is the aliasing regression test: a hit must
// never share label or core backing arrays with the cache or with another
// hit — one tenant scribbling on its response must not poison anyone else.
func TestResultCacheCopyOnHit(t *testing.T) {
	c := newResultCache(4)
	stored := &result{labels: []int{0, 1, 1, -1}, core: []bool{true, true, false, false}, numClusters: 2}
	c.put(rkey(1), stored)

	a, ok := c.get(rkey(1))
	if !ok {
		t.Fatal("miss after put")
	}
	b, _ := c.get(rkey(1))
	if &a.labels[0] == &stored.labels[0] || &a.labels[0] == &b.labels[0] {
		t.Fatal("cache hit aliases cached or sibling label slice")
	}
	if &a.core[0] == &stored.core[0] || &a.core[0] == &b.core[0] {
		t.Fatal("cache hit aliases cached or sibling core slice")
	}
	a.labels[0], a.core[0] = 99, false
	after, _ := c.get(rkey(1))
	if !reflect.DeepEqual(after.labels, []int{0, 1, 1, -1}) || !after.core[0] {
		t.Fatal("mutating a served copy leaked into the cache")
	}
	// nil core (stream results) must survive the round trip as nil.
	c.put(rkey(2), &result{labels: []int{-1}, numClusters: 0})
	s, _ := c.get(rkey(2))
	if s.core != nil {
		t.Fatal("nil core came back non-nil")
	}
}

// TestResultCacheAccounting pins hit/miss/eviction counts and LRU order.
func TestResultCacheAccounting(t *testing.T) {
	c := newResultCache(2)
	if _, ok := c.get(rkey(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(rkey(1), &result{labels: []int{1}})
	c.put(rkey(2), &result{labels: []int{2}})
	c.get(rkey(1))                            // 1 is now most recent
	c.put(rkey(3), &result{labels: []int{3}}) // evicts 2, the LRU
	if _, ok := c.get(rkey(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if r, ok := c.get(rkey(1)); !ok || r.labels[0] != 1 {
		t.Fatal("recently-used entry was evicted")
	}
	if r, ok := c.get(rkey(3)); !ok || r.labels[0] != 3 {
		t.Fatal("newest entry missing")
	}
	hits, misses, evictions, size := c.counters()
	if hits != 3 || misses != 2 || evictions != 1 || size != 2 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d size=%d, want 3/2/1/2",
			hits, misses, evictions, size)
	}
	// Double-put of one key must keep the first value, not duplicate.
	c.put(rkey(3), &result{labels: []int{99}})
	if r, _ := c.get(rkey(3)); r.labels[0] != 3 {
		t.Fatal("racing put replaced the first stored result")
	}
}

// TestResultKeyDiscriminates: every key component must separate entries.
func TestResultKeyDiscriminates(t *testing.T) {
	c := newResultCache(16)
	base := resultKey{id: DatasetID{7}, epsBits: epsBitsOf(0.5), minPts: 4, engine: EngineSeq, param: 0}
	c.put(base, &result{labels: []int{0}})
	variants := []resultKey{
		{id: DatasetID{8}, epsBits: base.epsBits, minPts: 4, engine: EngineSeq},
		{id: base.id, epsBits: epsBitsOf(0.5000000001), minPts: 4, engine: EngineSeq},
		{id: base.id, epsBits: base.epsBits, minPts: 5, engine: EngineSeq},
		{id: base.id, epsBits: base.epsBits, minPts: 4, engine: EngineDist},
		{id: base.id, epsBits: base.epsBits, minPts: 4, engine: EngineSeq, param: 2},
	}
	for i, k := range variants {
		if _, ok := c.get(k); ok {
			t.Fatalf("variant %d collided with base key", i)
		}
	}
}

// TestDatasetStoreContentAddressing: identical uploads share one id and one
// slot; the bound triggers ErrTooManyDatasets; ids are order-independent.
func TestDatasetStoreContentAddressing(t *testing.T) {
	st := newStore(2)
	a1, err := st.put(2, []float64{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := st.put(2, []float64{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical uploads got different ids")
	}
	if st.len() != 1 {
		t.Fatalf("store holds %d datasets, want 1", st.len())
	}
	// Same coords, different dim: must be a different dataset.
	b, err := st.put(4, []float64{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("dim is not part of the content hash")
	}
	if _, err := st.put(1, []float64{42}); err != ErrTooManyDatasets {
		t.Fatalf("over-capacity put: %v, want ErrTooManyDatasets", err)
	}
	// Re-uploading a stored dataset stays idempotent even at capacity.
	if _, err := st.put(2, []float64{0, 0, 1, 1}); err != nil {
		t.Fatalf("idempotent re-upload failed at capacity: %v", err)
	}
}

// TestDaemonCacheEndToEnd drives hit/miss/eviction accounting and
// copy-on-hit through the wire: two tenants, same dataset, same job.
func TestDaemonCacheEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1, ResultCacheSize: 2})
	t1 := dialTenant(t, addr, "alice")
	t2 := dialTenant(t, addr, "bob")

	cc := data.ConformanceCases()[0]
	rows := toRows(cc.Pts)
	id1, err := t1.Put(rows)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := t2.Put(rows)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("content addressing differs across tenants")
	}

	r1, err := t1.Cluster(id1, cc.Eps, cc.MinPts, EngineSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ResultMisses != 1 || st.ResultHits != 0 {
		t.Fatalf("after first job: hits=%d misses=%d, want 0/1", st.ResultHits, st.ResultMisses)
	}
	r2, err := t2.Cluster(id2, cc.Eps, cc.MinPts, EngineSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Fatalf("after second job: hits=%d misses=%d, want 1/1", st.ResultHits, st.ResultMisses)
	}
	if !reflect.DeepEqual(r1.Labels, r2.Labels) {
		t.Fatal("cached replay differs from computed result")
	}
	// Tenant 1 scribbles on its copy; tenant 2's next hit must be pristine.
	for i := range r1.Labels {
		r1.Labels[i] = -7
	}
	r3, err := t2.Cluster(id2, cc.Eps, cc.MinPts, EngineSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Labels, r3.Labels) {
		t.Fatal("a tenant's mutation reached another tenant's cached result")
	}

	// Three more distinct jobs against capacity 2 must evict.
	for i := 1; i <= 3; i++ {
		if _, err := t1.Cluster(id1, cc.Eps+float64(i)*0.001, cc.MinPts, EngineSeq, 0); err != nil {
			t.Fatal(err)
		}
	}
	st = srv.Stats()
	if st.ResultEvictions == 0 {
		t.Fatal("no evictions under cache pressure")
	}
	if st.ResultSize != 2 {
		t.Fatalf("cache size %d exceeds capacity 2", st.ResultSize)
	}
}

// TestQueueRoundRobinFairness pins the drain order: tenants alternate
// regardless of how many jobs each has queued.
func TestQueueRoundRobinFairness(t *testing.T) {
	q := newQueue(8, 64)
	mk := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			if err := q.push(&job{tenant: tenant, tag: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("a", 6)
	mk("b", 2)
	mk("c", 1)
	var order []string
	for i := 0; i < 9; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		order = append(order, j.tenant)
	}
	want := []string{"a", "b", "c", "a", "b", "a", "a", "a", "a"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
}

// TestQueueBoundsAndCancel pins the typed-rejection and cancel semantics.
func TestQueueBoundsAndCancel(t *testing.T) {
	q := newQueue(2, 3)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(q.push(&job{tenant: "a", tag: 1}))
	must(q.push(&job{tenant: "a", tag: 2}))
	if err := q.push(&job{tenant: "a", tag: 3}); err != ErrQueueFull {
		t.Fatalf("per-tenant overflow: %v, want ErrQueueFull", err)
	}
	must(q.push(&job{tenant: "b", tag: 1}))
	if err := q.push(&job{tenant: "c", tag: 1}); err != ErrOverloaded {
		t.Fatalf("global overflow: %v, want ErrOverloaded", err)
	}
	if j := q.cancel("a", 2); j == nil || j.tag != 2 {
		t.Fatal("cancel missed a queued job")
	}
	if j := q.cancel("a", 99); j != nil {
		t.Fatal("cancel invented a job")
	}
	if q.depth() != 2 {
		t.Fatalf("depth %d after cancel, want 2", q.depth())
	}
	drained := q.close()
	if len(drained) != 2 {
		t.Fatalf("close drained %d jobs, want 2", len(drained))
	}
	if err := q.push(&job{tenant: "a", tag: 9}); err != ErrShuttingDown {
		t.Fatalf("post-close push: %v, want ErrShuttingDown", err)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a job after close")
	}
}

// hashDatasetPerFloat is the dataset id as it was first defined: the
// canonical encoding fed to the hash one field at a time. Ids are what
// tenants hold between a put and their jobs, so the blocked hashDataset must
// reproduce it bit for bit.
func hashDatasetPerFloat(dim, n int, coords []float64) DatasetID {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(dim))
	h.Write(b[:4])
	binary.LittleEndian.PutUint32(b[:4], uint32(n))
	h.Write(b[:4])
	for _, v := range coords {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var id DatasetID
	h.Sum(id[:0])
	return id
}

// TestHashDatasetMatchesPerFloatEncoding pins dataset ids: one fixed dataset
// to its digest, and datasets whose encodings end on either side of every
// 4 KiB block boundary up to three blocks to the per-float reference.
func TestHashDatasetMatchesPerFloatEncoding(t *testing.T) {
	fixed := []float64{-1, math.Copysign(0, -1), 0.25, 1e-300, 3.5, -2.75, 1e300, 5e-324, 42}
	id := hashDataset(3, 3, fixed)
	if got := hex.EncodeToString(id[:]); got != "213d5b5d57f8f27b229698bde8bafebaad6c67c148b5fe16b1ed5e1c5b370668" {
		t.Fatalf("fixed dataset id %s", got)
	}
	coords := make([]float64, 3*512+2)
	for i := range coords {
		coords[i] = float64(i)*1.5 - 700
	}
	for n := 0; n <= len(coords); n++ {
		if got, want := hashDataset(1, n, coords[:n]), hashDatasetPerFloat(1, n, coords[:n]); got != want {
			t.Fatalf("%d coordinates: id %x, per-float encoding %x", n, got, want)
		}
	}
}

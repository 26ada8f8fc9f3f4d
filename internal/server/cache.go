package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// dataset is one stored point set: a contiguous row-major coordinate block
// plus two zero-copy views over it — rows for the mudbscan.Cluster* API and
// pts for mc.Build. All three alias the same immutable backing array.
type dataset struct {
	id   DatasetID
	dim  int
	data []float64
	rows [][]float64
	pts  []geom.Point
}

// store holds uploaded datasets by content hash. Re-uploading identical data
// is idempotent; the store is bounded and refuses beyond maxDatasets with
// ErrTooManyDatasets (datasets are tenant-shared immutable inputs, so LRU
// eviction here would silently break other tenants' in-flight ids).
type store struct {
	mu    sync.Mutex
	max   int
	byID  map[DatasetID]*dataset
	order []DatasetID // insertion order, for the stats surface
}

func newStore(max int) *store {
	return &store{max: max, byID: make(map[DatasetID]*dataset)}
}

// hashDataset computes the content id over the canonical encoding: dim and n
// as little-endian uint32, then every coordinate's bits as a little-endian
// uint64. The encoding is staged in 4 KiB blocks, so the hash is fed a block
// at a time and not one 8-byte write per coordinate.
func hashDataset(dim, n int, coords []float64) DatasetID {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, v := range coords {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	var id DatasetID
	h.Sum(id[:0])
	return id
}

// put stores a dataset built from row-major coords, returning its id.
func (st *store) put(dim int, coords []float64) (DatasetID, error) {
	n := 0
	if dim > 0 {
		n = len(coords) / dim
	}
	id := hashDataset(dim, n, coords)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[id]; ok {
		return id, nil
	}
	if len(st.byID) >= st.max {
		return DatasetID{}, ErrTooManyDatasets
	}
	data := append([]float64(nil), coords...)
	rows := make([][]float64, n)
	pts := make([]geom.Point, n)
	for i := range rows {
		rows[i] = data[i*dim : (i+1)*dim : (i+1)*dim]
		pts[i] = geom.Point(rows[i])
	}
	st.byID[id] = &dataset{id: id, dim: dim, data: data, rows: rows, pts: pts}
	st.order = append(st.order, id)
	return id, nil
}

func (st *store) get(id DatasetID) (*dataset, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ds, ok := st.byID[id]
	return ds, ok
}

func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// resultKey is the cache identity of one clustering job. ε enters as its
// bit pattern (exact float identity — DBSCAN output is discontinuous in ε,
// so no tolerance is sound) and the engine and its parameter are part of
// the key: the exact engines agree on clusters but not always on byte-level
// border assignment (shared's CAS claims), and served results must be
// byte-identical to the direct call with the same options.
type resultKey struct {
	id      DatasetID
	epsBits uint64
	minPts  int32
	engine  Engine
	param   int32
}

// result is one cached clustering outcome. The slices belong to the cache;
// they leave it only as defensive copies.
type result struct {
	labels      []int
	core        []bool // nil when the engine has no per-point core notion (stream)
	numClusters int
}

// clone returns a deep copy safe to hand to a tenant.
func (r *result) clone() *result {
	out := &result{numClusters: r.numClusters}
	out.labels = append([]int(nil), r.labels...)
	if r.core != nil {
		out.core = append([]bool(nil), r.core...)
	}
	return out
}

// lru is a bounded least-recently-used map with hit/miss/eviction
// accounting. All methods are safe for concurrent use.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *lruEntry[K, V]
	entries map[K]*list.Element

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), entries: make(map[K]*list.Element)}
}

// get returns the value stored under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return v, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores v under k unless the key is already present — two racing
// misses compute interchangeable values, and keeping the first means every
// later hit serves one consistent value — then evicts the least recently
// used entries beyond capacity. It returns the value now stored under k.
func (c *lru[K, V]) put(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val
	}
	c.entries[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
	return v
}

// counters returns a consistent snapshot of the accounting.
func (c *lru[K, V]) counters() (hits, misses, evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len()
}

// resultCache is the LRU of clustering results. put takes ownership of the
// result's slices.
type resultCache struct{ *lru[resultKey, *result] }

func newResultCache(capacity int) *resultCache {
	return &resultCache{newLRU[resultKey, *result](capacity)}
}

// get returns a deep copy of the cached result, never the cached slices:
// a tenant mutating its response must not poison every later hit.
func (c *resultCache) get(k resultKey) (*result, bool) {
	r, ok := c.lru.get(k)
	if !ok {
		return nil, false
	}
	return r.clone(), true
}

// indexKey identifies a built μR-tree: ε and MinPts shape micro-cluster
// formation, so each (dataset, ε, MinPts) triple is its own index.
type indexKey struct {
	id      DatasetID
	epsBits uint64
	minPts  int32
}

// indexCache is the LRU of built mc.Index values for ε-query serving. A
// cached index is immutable after construction (its reachable lists are
// never computed: no daemon operation reads them), so many connections
// query one concurrently; eviction only drops the cache reference —
// in-flight queries keep theirs alive.
type indexCache struct{ *lru[indexKey, *mc.Index] }

func newIndexCache(capacity int) *indexCache {
	return &indexCache{newLRU[indexKey, *mc.Index](capacity)}
}

// build returns the index for ds under (eps, minPts), constructing and
// caching it on first use.
func (c *indexCache) build(k indexKey, ds *dataset, eps float64, minPts int) *mc.Index {
	if ix, ok := c.get(k); ok {
		return ix
	}
	// Built outside the lock: construction is the expensive part and two
	// racing builders produce interchangeable immutable indexes.
	return c.put(k, mc.Build(ds.pts, eps, minPts, mc.Options{SkipReachable: true}))
}

// Package stream is the production streaming tier of μDBSCAN — the
// data-stream adaptation the paper names as future work (§VII, "this
// approach can also be adopted to fast clustering of data streams").
//
// A Clusterer ingests an unbounded stream of timestamped points through
// sharded, cell-hashed ownership: each point hashes to the ε-sided grid cell
// containing it (its micro-cluster bucket), each cell belongs to exactly one
// shard, and Add takes only that shard's mutex — so concurrent producers
// contend only when they land in the same shard.
//
// Two window modes govern retention:
//
//   - Landmark (Lambda = 0, the zero value): every accepted point stays in
//     the window forever.
//   - Damped (Lambda > 0): a point's weight decays as exp(-Lambda·age); once
//     it falls below PruneBelow the point has expired. Equivalently, a point
//     is live iff its age is at most the horizon ln(1/PruneBelow)/Lambda.
//     Because expiry is a per-point rule, the live window is a pure function
//     of the accepted stream and the current clock — independent of the
//     shard count and of when maintenance happens to run.
//
// Maintenance (every MaintenanceEvery insertions per shard) physically
// evicts expired points, deletes cells that became empty, and compacts
// (merges) the storage of cells that shrank. It only reclaims memory: the
// clustering visible through Snapshot never depends on it.
//
// Snapshot gathers the live window in arrival order and runs the batch
// μDBSCAN engine (the incremental mc.Builder pipeline) over it, so every
// snapshot is an *exact* DBSCAN clustering of the window — the same cores,
// partition and noise as a batch run at the same ε/minPts — not a
// micro-cluster-granularity approximation.
package stream

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mudbscan/internal/geom"
)

// Options tunes the stream clusterer; the zero value is a single-shard-free
// (8-shard) landmark window.
type Options struct {
	// Lambda is the exponential decay rate per time unit: a point's weight
	// halves every ln(2)/Lambda time units. 0 selects the landmark window
	// (no decay, nothing expires).
	Lambda float64
	// PruneBelow is the decayed-weight threshold under which a point has
	// expired (default 0.1 when Lambda > 0; must be in (0,1)). The retention
	// horizon is ln(1/PruneBelow)/Lambda time units.
	PruneBelow float64
	// MaintenanceEvery is the number of insertions a shard accepts between
	// physical eviction/compaction passes (default 1024). Maintenance only
	// reclaims memory; snapshots are unaffected by its cadence.
	MaintenanceEvery int
	// Shards is the number of independently locked cell-hash shards
	// (default 8). The shard count affects only lock contention, never the
	// clustering: snapshots are byte-identical at any shard count.
	Shards int
}

const (
	defaultPruneBelow       = 0.1
	defaultMaintenanceEvery = 1024
	defaultShards           = 8
)

// cellKey is the comparable grid key of a point's ε-sided cell: the first
// four cell coordinates verbatim plus an FNV-1a fold of the remaining
// dimensions. Beyond d = 4 distinct cells may share a key; a collision only
// co-locates their points in one storage bucket (and one shard) — the
// clustering is computed from coordinates, so exactness is unaffected.
type cellKey struct {
	lo [4]int32
	hi uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// compare orders keys lexicographically; used to iterate cells deterministically.
func (k cellKey) compare(o cellKey) int {
	for i := 0; i < 4; i++ {
		if k.lo[i] != o.lo[i] {
			return cmp.Compare(k.lo[i], o.lo[i])
		}
	}
	return cmp.Compare(k.hi, o.hi)
}

// cell is one micro-cluster bucket: the points currently stored in one
// ε-sided grid cell, as parallel arrays in arrival order. coords is packed
// row-major (point i occupies coords[i*dim : (i+1)*dim]).
type cell struct {
	coords []float64
	seqs   []int64
	times  []float64
}

// shard owns a disjoint subset of the cells under one mutex.
type shard struct {
	mu         sync.Mutex
	cells      map[cellKey]*cell
	sinceMaint int
	live       int // points currently stored (incl. expired-but-not-yet-GCed)

	evictedPoints int64
	evictedCells  int64
	compactions   int64
}

// Clusterer ingests a stream of points and serves exact clustering
// snapshots of the live window. All methods are safe for concurrent use.
type Clusterer struct {
	dim     int
	eps     float64
	minPts  int
	opts    Options
	horizon float64 // retention horizon in time units; +Inf for landmark

	shards []*shard
	// clock holds math.Float64bits of the largest timestamp observed.
	// Timestamps are validated non-negative, so the bit patterns order the
	// same way the floats do and a CAS loop keeps the clock monotone.
	clock    atomic.Uint64
	accepted atomic.Int64
}

// New creates a stream clusterer for dim-dimensional points with DBSCAN
// parameters eps and minPts.
func New(dim int, eps float64, minPts int, opts Options) (*Clusterer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("stream: dim must be positive")
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: eps must be a positive finite number")
	}
	if minPts < 1 {
		return nil, fmt.Errorf("stream: minPts must be at least 1")
	}
	if opts.Lambda < 0 || math.IsNaN(opts.Lambda) || math.IsInf(opts.Lambda, 0) {
		return nil, fmt.Errorf("stream: lambda must be non-negative and finite")
	}
	if opts.Lambda > 0 {
		if opts.PruneBelow == 0 {
			opts.PruneBelow = defaultPruneBelow
		}
		if !(opts.PruneBelow > 0 && opts.PruneBelow < 1) {
			return nil, fmt.Errorf("stream: PruneBelow must be in (0,1), got %g", opts.PruneBelow)
		}
	}
	if opts.MaintenanceEvery <= 0 {
		opts.MaintenanceEvery = defaultMaintenanceEvery
	}
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	horizon := math.Inf(1)
	if opts.Lambda > 0 {
		horizon = math.Log(1/opts.PruneBelow) / opts.Lambda
	}
	c := &Clusterer{
		dim: dim, eps: eps, minPts: minPts, opts: opts, horizon: horizon,
		shards: make([]*shard, opts.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &shard{cells: make(map[cellKey]*cell)}
	}
	return c, nil
}

// Dim returns the dimensionality of the stream.
func (c *Clusterer) Dim() int { return c.dim }

// Eps returns the clustering radius.
func (c *Clusterer) Eps() float64 { return c.eps }

// MinPts returns the core-point density threshold.
func (c *Clusterer) MinPts() int { return c.minPts }

// now returns the current stream clock (the largest timestamp observed).
func (c *Clusterer) now() float64 {
	return math.Float64frombits(c.clock.Load())
}

// advance moves the clock forward to t; it reports false when t precedes the
// clock (the caller's point must then be rejected).
func (c *Clusterer) advance(t float64) bool {
	for {
		cur := c.clock.Load()
		if t < math.Float64frombits(cur) {
			return false
		}
		if math.Float64bits(t) == cur || c.clock.CompareAndSwap(cur, math.Float64bits(t)) {
			return true
		}
	}
}

// tick reserves the next whole-unit timestamp for an Add (one time unit per
// insertion, matching the damped window's per-insertion decay convention).
func (c *Clusterer) tick() float64 {
	for {
		cur := c.clock.Load()
		t := math.Float64frombits(cur) + 1
		if c.clock.CompareAndSwap(cur, math.Float64bits(t)) {
			return t
		}
	}
}

// Add absorbs p at the next logical timestamp (one unit per insertion).
func (c *Clusterer) Add(p []float64) error {
	if err := c.check(p); err != nil {
		return err
	}
	return c.insert(p, c.tick())
}

// AddAt absorbs p at time t. Timestamps must be finite, non-negative and
// non-decreasing; a point whose timestamp precedes the stream clock is
// rejected without being absorbed.
func (c *Clusterer) AddAt(p []float64, t float64) error {
	if err := c.check(p); err != nil {
		return err
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return fmt.Errorf("stream: timestamp %g is not a finite non-negative number", t)
	}
	if !c.advance(t) {
		return fmt.Errorf("stream: timestamp %g precedes current time %g", t, c.now())
	}
	return c.insert(p, t)
}

// check validates a point against the stream's dimensionality and rejects
// non-finite coordinates.
func (c *Clusterer) check(p []float64) error {
	if len(p) != c.dim {
		return fmt.Errorf("stream: point has dim %d, want %d", len(p), c.dim)
	}
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: coordinate %d is not finite", i)
		}
	}
	return nil
}

// insert stores an already-validated point at time t in its owning shard.
func (c *Clusterer) insert(p []float64, t float64) error {
	seq := c.accepted.Add(1) - 1
	k := c.keyOf(p)
	sh := c.shards[c.shardOf(k)]
	sh.mu.Lock()
	cl := sh.cells[k]
	if cl == nil {
		cl = &cell{}
		sh.cells[k] = cl
	}
	cl.coords = append(cl.coords, p...)
	cl.seqs = append(cl.seqs, seq)
	cl.times = append(cl.times, t)
	sh.live++
	sh.sinceMaint++
	if sh.sinceMaint >= c.opts.MaintenanceEvery {
		sh.sinceMaint = 0
		c.maintainShard(sh, c.now())
	}
	sh.mu.Unlock()
	return nil
}

// cellIndex maps one coordinate quotient to its ε-sided grid index, clamping
// the (astronomically out-of-range) extremes so the float→int conversion
// stays portable.
//
//mulint:noalloc
func cellIndex(x float64) int32 {
	return int32(geom.FloorClamp(x, math.MinInt32, math.MaxInt32))
}

// keyOf computes the comparable grid key of p's ε-sided cell: dimensions
// 0–3 verbatim, the rest FNV-1a-folded into hi.
//
//mulint:noalloc
func (c *Clusterer) keyOf(p []float64) cellKey {
	var k cellKey
	n := len(p)
	if n > 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		k.lo[i] = cellIndex(p[i] / c.eps)
	}
	if len(p) > 4 {
		h := uint64(fnvOffset64)
		for i := 4; i < len(p); i++ {
			h ^= uint64(uint32(cellIndex(p[i] / c.eps)))
			h *= fnvPrime64
		}
		k.hi = h
	}
	return k
}

// shardOf hashes a cell key to its owning shard.
//
//mulint:noalloc
func (c *Clusterer) shardOf(k cellKey) int {
	h := uint64(fnvOffset64)
	for i := 0; i < 4; i++ {
		h ^= uint64(uint32(k.lo[i]))
		h *= fnvPrime64
	}
	h ^= k.hi
	h *= fnvPrime64
	return int(h % uint64(len(c.shards)))
}

// maintainShard physically evicts expired points from one shard: cells whose
// points all expired are deleted, shrunken cells are compacted in place
// (their live points merged down in arrival order). Caller holds sh.mu.
// Per-cell decisions depend only on each point's own timestamp, so the
// randomized map order cannot leak into anything observable.
func (c *Clusterer) maintainShard(sh *shard, now float64) {
	if math.IsInf(c.horizon, 1) {
		return
	}
	cutoff := now - c.horizon
	for key, cl := range sh.cells {
		n := len(cl.times)
		w := 0
		for i := 0; i < n; i++ {
			if cl.times[i] < cutoff {
				continue
			}
			if w != i {
				copy(cl.coords[w*c.dim:(w+1)*c.dim], cl.coords[i*c.dim:(i+1)*c.dim])
				cl.seqs[w] = cl.seqs[i]
				cl.times[w] = cl.times[i]
			}
			w++
		}
		if w == n {
			continue
		}
		sh.evictedPoints += int64(n - w)
		sh.live -= n - w
		if w == 0 {
			delete(sh.cells, key)
			sh.evictedCells++
			continue
		}
		cl.coords = cl.coords[:w*c.dim]
		cl.seqs = cl.seqs[:w]
		cl.times = cl.times[:w]
		sh.compactions++
	}
}

// Stats is a point-in-time summary of the clusterer's bookkeeping.
type Stats struct {
	// Accepted counts the points absorbed by Add/AddAt since creation.
	Accepted int64
	// Retained counts the points physically stored right now (live points
	// plus any expired points maintenance has not yet reclaimed).
	Retained int
	// Cells counts the non-empty micro-cluster buckets.
	Cells int
	// EvictedPoints and EvictedCells count what maintenance reclaimed.
	EvictedPoints int64
	EvictedCells  int64
	// Compactions counts in-place cell merges (shrunken cells compacted).
	Compactions int64
	// Shards is the configured shard count.
	Shards int
}

// Stats reports ingest and eviction counters. Counter totals (unlike
// snapshots) depend on maintenance cadence and are not shard-invariant.
func (c *Clusterer) Stats() Stats {
	st := Stats{Accepted: c.accepted.Load(), Shards: len(c.shards)}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Retained += sh.live
		st.Cells += len(sh.cells)
		st.EvictedPoints += sh.evictedPoints
		st.EvictedCells += sh.evictedCells
		st.Compactions += sh.compactions
		sh.mu.Unlock()
	}
	return st
}

// Len returns the current number of non-empty micro-cluster buckets.
func (c *Clusterer) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.cells)
		sh.mu.Unlock()
	}
	return n
}

// Inserted returns the number of points absorbed so far.
func (c *Clusterer) Inserted() int { return int(c.accepted.Load()) }

// Package stream is the production streaming tier of μDBSCAN — the
// data-stream adaptation the paper names as future work (§VII, "this
// approach can also be adopted to fast clustering of data streams").
//
// A Clusterer keeps the live window as one arrival log: the points' rows and
// timestamps in two flat arrays, in arrival order, under one mutex that also
// covers the stream clock. Add and AddAt validate outside the lock; inside it
// they advance the clock, append, and trim the expired prefix.
//
// Two window modes govern retention:
//
//   - Landmark (Lambda = 0, the zero value): every accepted point stays in
//     the window forever.
//   - Damped (Lambda > 0): a point's weight decays as exp(-Lambda·age); once
//     it falls below PruneBelow the point has expired. Equivalently, a point
//     is live iff its age is at most the horizon ln(1/PruneBelow)/Lambda.
//
// Because one lock orders the clock and the append, the log's timestamps
// never decrease, and neither does the expiry cutoff clock − horizon. The
// expired points are therefore always a prefix of the log, eviction is a
// reslice, and the log is exactly the live window after every insertion.
//
// Snapshot copies the log and runs over it the engine the library's auto
// selector picks for that window (cell.Prefer): the grid at one worker where
// it prefers the grid, which is every d ≤ 3, and the sequential μR-tree
// engine (core.RunSet) otherwise. Every snapshot is therefore an *exact*
// DBSCAN clustering of the window — byte-for-byte the auto engine's batch
// run at the same ε/minPts — not a micro-cluster-granularity approximation.
package stream

import (
	"fmt"
	"math"
	"sync"
)

// Options tunes the stream clusterer; the zero value is a landmark window.
type Options struct {
	// Lambda is the exponential decay rate per time unit: a point's weight
	// halves every ln(2)/Lambda time units. 0 selects the landmark window
	// (no decay, nothing expires).
	Lambda float64
	// PruneBelow is the decayed-weight threshold under which a point has
	// expired (default 0.1 when Lambda > 0; must be in (0,1)). The retention
	// horizon is ln(1/PruneBelow)/Lambda time units.
	PruneBelow float64
}

const defaultPruneBelow = 0.1

// Clusterer ingests a stream of points and serves exact clustering
// snapshots of the live window. All methods are safe for concurrent use.
type Clusterer struct {
	dim     int
	eps     float64
	minPts  int
	horizon float64 // retention horizon in time units; +Inf for landmark

	mu sync.Mutex
	// clock is the largest timestamp observed.
	clock float64
	// coords and times are the live window in arrival order; coords is
	// row-major (point i occupies coords[i*dim : (i+1)*dim]).
	coords []float64
	times  []float64
	// first is the arrival number of times[0], which is also the number of
	// points evicted so far.
	first int64
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
	horizon := math.Inf(1)
	if opts.Lambda > 0 {
		if opts.PruneBelow == 0 {
			opts.PruneBelow = defaultPruneBelow
		}
		if !(opts.PruneBelow > 0 && opts.PruneBelow < 1) {
			return nil, fmt.Errorf("stream: PruneBelow must be in (0,1), got %g", opts.PruneBelow)
		}
		horizon = math.Log(1/opts.PruneBelow) / opts.Lambda
	}
	return &Clusterer{dim: dim, eps: eps, minPts: minPts, horizon: horizon}, nil
}

// Dim returns the dimensionality of the stream.
func (c *Clusterer) Dim() int { return c.dim }

// Eps returns the clustering radius.
func (c *Clusterer) Eps() float64 { return c.eps }

// MinPts returns the core-point density threshold.
func (c *Clusterer) MinPts() int { return c.minPts }

// Add absorbs p at the next logical timestamp (one unit per insertion).
func (c *Clusterer) Add(p []float64) error {
	if err := c.check(p); err != nil {
		return err
	}
	c.mu.Lock()
	c.push(p, c.clock+1)
	c.mu.Unlock()
	return nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.clock {
		return fmt.Errorf("stream: timestamp %g precedes current time %g", t, c.clock)
	}
	c.push(p, t)
	return nil
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

// push appends an already-validated point at time t ≥ clock, moves the clock
// to t, and drops the prefix that expired. Caller holds c.mu.
func (c *Clusterer) push(p []float64, t float64) {
	c.clock = t
	c.coords = append(c.coords, p...)
	c.times = append(c.times, t)
	if math.IsInf(c.horizon, 1) {
		return
	}
	cutoff := t - c.horizon
	k := 0
	for k < len(c.times) && c.times[k] < cutoff {
		k++
	}
	c.times = c.times[k:]
	c.coords = c.coords[k*c.dim:]
	c.first += int64(k)
}

// Stats is a point-in-time summary of the clusterer's bookkeeping.
type Stats struct {
	// Accepted counts the points absorbed by Add/AddAt since creation.
	Accepted int64
	// Retained counts the points in the live window.
	Retained int
	// EvictedPoints counts the points that expired; it is Accepted − Retained.
	EvictedPoints int64
}

// Stats reports the ingest and eviction counters.
func (c *Clusterer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.times)
	return Stats{Accepted: c.first + int64(n), Retained: n, EvictedPoints: c.first}
}

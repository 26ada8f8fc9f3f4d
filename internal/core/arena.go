package core

// Arena is one worker's reusable neighborhood-query scratch: the ε-query
// hit-list and hit-distance buffers behind the allocation-free *Into query
// tier. A run owns fresh scratch by default; a long-lived caller — the
// mudbscand worker pool serving one clustering job after another — lends one
// Arena per worker through Options.Arenas instead, and the run hands the
// (possibly grown) buffers back when it completes. The second job on the same worker
// then starts with scratch already warmed to the largest neighborhood the
// first one saw, so the steady-state zero-allocation contract of
// processPoint (TestProcessPointZeroAllocs) holds across requests, not just
// within one run. Callers serving bare ε-queries (no run) use Nbhd directly
// as the dst of an *Into query, storing the returned slice back so growth is
// retained.
//
// An Arena is owned by exactly one worker at a time: the buffers are written
// by every query, so sharing one across concurrent runs is a data race.
type Arena struct {
	// Nbhd receives the ids of each ε-neighborhood query's hits.
	Nbhd []int
	// Dist receives, per Nbhd entry, the squared distance the query's leaf
	// scan computed for it (the ε/2 inner-circle test reads it).
	Dist []float64
}

// Package mudbscan is an exact, scalable DBSCAN library — a from-scratch Go
// implementation of "μDBSCAN: An Exact Scalable DBSCAN Algorithm for Big
// Data Exploiting Spatial Locality" (Sarma et al., IEEE CLUSTER 2019).
//
// μDBSCAN groups points into micro-clusters (ε-radius hyper-spheres around
// data points) indexed in a two-level μR-tree. Dense micro-clusters prove
// most points core *without* running their ε-neighborhood queries (43–96%
// of queries saved on the paper's workloads), and the remaining queries are
// confined to the few reachable micro-clusters within 3ε. The produced
// clustering is exactly that of textbook DBSCAN: the same core points, the
// same partition of core points into clusters, the same number of clusters
// and the same noise set.
//
// Every entry point has the same exact semantics:
//
//   - Cluster: any of the engines behind WithEngine — sequential μDBSCAN
//     (the default), shared-memory μDBSCAN on WithWorkers goroutines, the
//     grid cell engine, μDBSCAN-D, the streaming tier, or EngineAuto, which
//     picks the cell engine or sequential μDBSCAN from a cheap profile of the
//     data.
//   - ClusterDistributed: μDBSCAN-D over simulated message-passing ranks
//     (spatial kd partitioning, ε-halo exchange, local clustering, query-free
//     merge); ranks run truly concurrently unless WithSerialSimulation puts
//     the same pipeline behind a one-rank-at-a-time compute turnstile, the
//     paper-table timing methodology.
//   - ClusterStream and NewStreamClusterer: exact snapshots of an unbounded
//     stream under a landmark or damped window; each snapshot is the batch
//     clustering of the points currently alive.
//
// The usual entry point:
//
//	result, err := mudbscan.Cluster(points, eps, minPts)
//	for i, label := range result.Labels {
//	    // label == mudbscan.Noise or a cluster id in [0, result.NumClusters)
//	}
package mudbscan

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"mudbscan/internal/cell"
	"mudbscan/internal/chaos"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
)

// Result is a clustering outcome: Labels[i] is the cluster of point i
// (Noise for noise points), Core[i] reports core-point status, and
// NumClusters counts the clusters.
type Result = clustering.Result

// Noise is the label assigned to noise points.
const Noise = clustering.Noise

// SeqStats reports the work a sequential run performed: micro-cluster
// count, queries executed and saved, distance calculations, and the
// wall-clock split over the algorithm's four steps.
type SeqStats = core.Stats

// DistStats reports the work and communication of a distributed run.
type DistStats = dist.Stats

// Engine names one of the exact engines behind Cluster and ClusterWithStats.
// Every engine, at every worker or rank count, returns the same bytes as
// brute-force DBSCAN (internal/dbscan.Brute): the exact clustering, each
// border in the cluster of its smallest-id core neighbor. They differ in how the ε-neighborhood work is organized,
// and therefore in speed. The values are the engine byte of the mudbscand
// wire protocol: append-only, never renumbered.
type Engine uint8

//mulint:wire server-engine
const (
	// EngineAuto profiles the dataset with cheap statistics (dimensionality
	// plus the cell-occupancy of a bounded sample) and runs EngineCell or
	// EngineSeq; ChooseEngine exposes the decision.
	EngineAuto Engine = iota
	// EngineSeq is the paper's sequential μR-tree engine: points are grouped
	// into ε-sphere micro-clusters indexed by a two-level R-tree. Its cost
	// grows gently with dimensionality, making it the safe choice for d ≳ 4.
	EngineSeq
	// EngineShared is shared-memory μDBSCAN: the EngineSeq driver on
	// WithWorkers goroutines, with EngineSeq's output at any worker count.
	EngineShared
	// EngineDist is μDBSCAN-D on WithWorkers simulated ranks (a power of
	// two; ClusterDistributed is the same engine with its own options).
	EngineDist
	// EngineStream feeds the rows through the streaming tier in order under
	// the landmark window and maps the final snapshot back onto them
	// (ClusterStream is the same engine with its window options).
	EngineStream
	// EngineCell is the grid engine (cells of side ε/√d over a sorted
	// non-empty-cell table): any two points sharing a cell are ε-neighbors,
	// so populated cells go core wholesale and the remaining queries scan a
	// few adjacent cells. It is typically the fastest engine at d ≤ 3 but
	// its neighbor-cell enumeration grows exponentially in d.
	EngineCell
)

// engineNames spells each engine as String, ParseEngine, the mudbscan CLI's
// -mode and the mudbscand wire protocol do.
var engineNames = [...]string{
	EngineAuto: "auto", EngineSeq: "seq", EngineShared: "shared",
	EngineDist: "dist", EngineStream: "stream", EngineCell: "cell",
}

// String returns the engine's name.
func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine is String's inverse; the empty string means EngineAuto.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineAuto, nil
	}
	for e, name := range engineNames {
		if s == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("mudbscan: unknown engine %q (want one of %s)", s, strings.Join(engineNames[:], ", "))
}

// WithEngine selects the engine for Cluster and ClusterWithStats (default
// EngineSeq). ClusterDistributed and ClusterStream are their engines' typed
// entry points and ignore it.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// ChooseEngine reports the concrete engine EngineAuto would run on this
// input: the decision is made from cheap statistics (n, d, and the
// cell-occupancy distribution of a deterministic ≤1024-point sample) without
// building any index. When the profile favors the grid, one further pass
// (a compare per coordinate) confirms the grid can index the data at this eps
// (see ErrCellRange). Degenerate inputs — empty data, a non-positive or
// non-finite eps, rows Cluster would refuse — and data that fails that
// check fall back to EngineSeq.
func ChooseEngine(points [][]float64, eps float64, minPts int) Engine {
	minPts = max(minPts, 1)
	set, err := validate(points, eps, minPts)
	if err != nil {
		return EngineSeq
	}
	e, _, _ := resolve(set, eps, minPts, EngineAuto, 0)
	return e
}

// resolve turns a requested engine and WithWorkers count into the engine
// that runs and its parameter, for every entry point: auto's pick (the grid
// when the sample profile favors it and the grid can index every
// coordinate, EngineSeq otherwise — never EngineShared), the default
// GOMAXPROCS goroutines for shared and cell, and a refusal for data the
// grid cannot index or a rank count that is not a power of two. An engine
// it does not know passes through; the dispatch switch refuses it.
func resolve(set *geom.PointSet, eps float64, minPts int, e Engine, workers int) (Engine, int, error) {
	if e == EngineAuto {
		e = EngineSeq
		if cell.Prefer(set, eps, minPts) {
			e = EngineCell
		}
	} else if e == EngineCell && !cell.Representable(set, eps) {
		return 0, 0, ErrCellRange
	}
	if e == EngineDist && (workers < 1 || workers&(workers-1) != 0) {
		return 0, 0, fmt.Errorf("mudbscan: ranks must be a power of two (1, 2, 4, …), got %d", workers)
	}
	if workers <= 0 && (e == EngineShared || e == EngineCell) {
		workers = runtime.GOMAXPROCS(0)
	}
	return e, workers, nil
}

// ErrCellRange is returned when EngineCell is requested for data the grid
// cannot index: some coordinate lies 2^52 or more cells (of side ε/√d) from
// the origin, where float64 no longer tells neighbouring cells apart.
// EngineSeq has no such limit and EngineAuto falls back to it; translating
// the data towards the origin also lifts it.
var ErrCellRange = errors.New("mudbscan: coordinates too large relative to eps for the cell engine (need |x|·√d/eps < 2^52)")

// ErrTooManyPoints is returned by every entry point for a dataset of more
// than 2^31−1 points: point ids, micro-cluster ids and the offsets of the
// index's arenas are 32-bit throughout.
var ErrTooManyPoints = errors.New("mudbscan: more than 2^31-1 points (ids are 32-bit)")

// tooManyPoints is the int32 ceiling on a dataset's size.
func tooManyPoints(n int) bool { return n > math.MaxInt32 }

// config collects the option knobs.
type config struct {
	disableWndq  bool
	workers      int
	sampleSize   int
	seed         int64
	distSerial   bool
	faultSeed    *int64
	engine       Engine
	streamLambda float64
	streamPrune  float64
}

// Option customizes a clustering run.
type Option func(*config)

// WithoutQueryReduction disables core identification without queries; every
// point is queried, as in classic DBSCAN. The result is unchanged, only
// slower — this knob exists for measurement.
func WithoutQueryReduction() Option { return func(c *config) { c.disableWndq = true } }

// WithWorkers sets the one parameter of the engine that runs: goroutines
// for EngineShared and EngineCell (default GOMAXPROCS), ranks for EngineDist
// (a power of two, no default). EngineSeq and EngineStream ignore it.
// ClusterDistributed takes its rank count as an argument instead.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithSampleSize sets the per-rank sample size for the sampling-based
// median partitioning of ClusterDistributed (default 0 = exact medians).
func WithSampleSize(s int) Option { return func(c *config) { c.sampleSize = s } }

// WithSeed seeds the partitioning sampler of ClusterDistributed.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithSerialSimulation makes ClusterDistributed execute its compute phases
// one rank at a time, each timed in isolation — the single-host simulation
// methodology behind the paper's tables — instead of the default truly
// concurrent rank execution. It is the same rank pipeline behind a compute
// turnstile: the clustering, the counters and the communication volume are
// identical either way; only the phase times' meaning changes (see
// DistStats.WallClock).
func WithSerialSimulation() Option { return func(c *config) { c.distSerial = true } }

// WithFaultInjection routes ClusterDistributed's messages, collectives
// included, through a deterministic fault-injecting network (drops,
// duplicates, reordering, delays, and bit corruption, reproducible from the
// seed). Every message already travels in a sequence-numbered, checksummed,
// acknowledged envelope, so the clustering is byte-identical to the clean
// run — this knob exists for testing and for demonstrating the reliability
// layer.
func WithFaultInjection(seed int64) Option {
	return func(c *config) { c.faultSeed = &seed }
}

// checkParams checks the clustering parameters every entry point takes.
func checkParams(eps float64, minPts int) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("mudbscan: eps must be a positive finite number, got %g", eps)
	}
	if minPts < 1 {
		return fmt.Errorf("mudbscan: minPts must be at least 1, got %d", minPts)
	}
	return nil
}

// validate checks the inputs of the row-taking entry points: it copies the
// rows into one block, checking that they share one dimensionality, and
// checks the block as ClusterFlat does. An empty input is an empty
// one-dimensional set.
func validate(points [][]float64, eps float64, minPts int) (*geom.PointSet, error) {
	if err := checkParams(eps, minPts); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return geom.NewPointSet(1, 0), nil
	}
	if tooManyPoints(len(points)) {
		return nil, ErrTooManyPoints
	}
	dim := len(points[0])
	coords := make([]float64, 0, len(points)*dim)
	for i, row := range points {
		if len(row) != dim {
			return nil, fmt.Errorf("mudbscan: point %d has %d coordinates, want %d", i, len(row), dim)
		}
		coords = append(coords, row...)
	}
	return validateFlat(coords, dim, eps, minPts)
}

// validateFlat checks the inputs of ClusterFlat and adopts the block.
func validateFlat(coords []float64, dim int, eps float64, minPts int) (*geom.PointSet, error) {
	if err := checkParams(eps, minPts); err != nil {
		return nil, err
	}
	if dim < 1 {
		return nil, fmt.Errorf("mudbscan: points must have at least one dimension, got %d", dim)
	}
	if len(coords)%dim != 0 {
		return nil, fmt.Errorf("mudbscan: %d coordinates are not a whole number of %d-dimensional points", len(coords), dim)
	}
	if tooManyPoints(len(coords) / dim) {
		return nil, ErrTooManyPoints
	}
	for k, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mudbscan: point %d coordinate %d is not finite", k/dim, k%dim)
		}
	}
	return geom.AdoptPointSet(dim, coords), nil
}

// Cluster returns the exact DBSCAN clustering of points under the given ε
// and MinPts, computed by the engine WithEngine selects (default EngineSeq).
// It is ClusterWithStats without the stats. A dataset may hold at most
// 2^31−1 points; a larger one is refused with ErrTooManyPoints before any
// engine runs.
func Cluster(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, error) {
	r, _, err := ClusterWithStats(points, eps, minPts, opts...)
	return r, err
}

// ClusterWithStats is Cluster plus the run's work statistics. Under
// EngineCell the micro-cluster fields describe grid cells instead (NumMCs is
// the non-empty-cell count, QueriesSaved the points proven core by the
// dense-cell shortcut) and the step split folds the grid's five phases into
// the paper's four. The stats are nil under EngineDist and EngineStream,
// whose typed entry points ClusterDistributed and ClusterStream report
// their own. It copies the rows into one block and runs ClusterFlat's path
// on it.
func ClusterWithStats(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, *SeqStats, error) {
	set, err := validate(points, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	return clusterSet(set, eps, minPts, opts)
}

// ClusterFlat is ClusterWithStats over a row-major block: point i is
// coords[i*dim : (i+1)*dim]. The engines read the block in place — it is
// the μR-tree's point store, not a copy of it — and never write it, so
// the caller must not modify it until ClusterFlat returns. The Result does
// not refer to it.
func ClusterFlat(coords []float64, dim int, eps float64, minPts int, opts ...Option) (*Result, *SeqStats, error) {
	set, err := validateFlat(coords, dim, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	return clusterSet(set, eps, minPts, opts)
}

// clusterSet runs the engine the options select on a validated set: the one
// engine switch.
func clusterSet(set *geom.PointSet, eps float64, minPts int, opts []Option) (*Result, *SeqStats, error) {
	cfg := config{engine: EngineSeq}
	for _, o := range opts {
		o(&cfg)
	}
	engine, workers, err := resolve(set, eps, minPts, cfg.engine, cfg.workers)
	if err != nil {
		return nil, nil, err
	}
	switch engine {
	case EngineSeq, EngineShared:
		copts := core.Options{DisableWndq: cfg.disableWndq}
		if engine == EngineShared {
			copts.Workers = workers
		}
		r, st := core.RunSet(set, eps, minPts, copts)
		return r, st, nil
	case EngineCell:
		r, st := cell.RunSet(set, eps, minPts, cell.Options{Workers: workers})
		return r, cellSeqStats(st), nil
	case EngineDist:
		r, _, err := clusterDistributed(set.Points(), eps, minPts, workers, &cfg)
		return r, nil, err
	case EngineStream:
		r, err := clusterStream(set, eps, minPts, &cfg)
		return r, nil, err
	case EngineAuto:
		// resolve has replaced it with the engine it picked.
	}
	return nil, nil, fmt.Errorf("mudbscan: unknown engine %v", engine)
}

// cellSeqStats adapts the cell engine's statistics to the SeqStats shape so
// ClusterWithStats reports one stats type whichever engine ran: non-empty
// cells stand in for micro-clusters, dense-cell core proofs for wndq-saved
// queries, and the grid's Build/Adjacency/Mark+Connect/Assign phases for the
// paper's four steps.
func cellSeqStats(st *cell.Stats) *SeqStats {
	return &SeqStats{
		NumMCs:       st.Cells,
		Queries:      st.Queries,
		QueriesSaved: st.QueriesSaved,
		DistCalcs:    st.DistCalcs,
		WndqFromMCs:  st.QueriesSaved,
		Steps: core.StepTimes{
			TreeConstruction: st.Steps.Build,
			FindingReachable: st.Steps.Adjacency,
			Clustering:       st.Steps.Mark + st.Steps.Connect,
			PostProcessing:   st.Steps.Assign,
		},
	}
}

// ClusterDistributed runs μDBSCAN-D over the given number of simulated
// message-passing ranks, which must be a power of two; any other count is
// refused before a rank starts. The result is exact and identical to
// Cluster's for every rank count.
func ClusterDistributed(points [][]float64, eps float64, minPts, ranks int, opts ...Option) (*Result, *DistStats, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	set, err := validate(points, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	if _, ranks, err = resolve(set, eps, minPts, EngineDist, ranks); err != nil {
		return nil, nil, err
	}
	return clusterDistributed(set.Points(), eps, minPts, ranks, &cfg)
}

// clusterDistributed is EngineDist on validated points and a resolved rank
// count. μDBSCAN-D partitions []geom.Point, so this path alone takes row
// views of the set.
func clusterDistributed(pts []geom.Point, eps float64, minPts, ranks int, cfg *config) (*Result, *DistStats, error) {
	exec := dist.ExecConcurrent
	if cfg.distSerial {
		exec = dist.ExecSerial
	}
	dopts := dist.Options{
		SampleSize: cfg.sampleSize,
		Seed:       cfg.seed,
		Core:       core.Options{DisableWndq: cfg.disableWndq},
		Exec:       exec,
	}
	if cfg.faultSeed != nil {
		dopts.Transport = chaos.New(chaos.Eventual(*cfg.faultSeed))
	}
	return dist.MuDBSCAND(pts, eps, minPts, ranks, dopts)
}

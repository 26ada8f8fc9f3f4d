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
//   - Cluster: one host, one of two engines behind WithEngine — sequential
//     μDBSCAN (the default) or the grid cell engine, with EngineAuto choosing
//     between them from a cheap profile of the data.
//   - ClusterParallel: multi-core shared-memory μDBSCAN, the same driver as
//     Cluster's default on WithWorkers goroutines.
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

// ParStats reports the work of a shared-memory parallel run: the same
// record as SeqStats, with Workers saying how many goroutines ran it.
type ParStats = SeqStats

// DistStats reports the work and communication of a distributed run.
type DistStats = dist.Stats

// Engine names one of the exact single-host engines behind Cluster and
// ClusterWithStats. All engines produce byte-identical results — the same
// Labels, Core flags and NumClusters on every input — they differ only in
// how the ε-neighborhood work is organized, and therefore in speed.
type Engine int

const (
	// EngineMuTree is the paper's μR-tree engine (the default): points are
	// grouped into ε-sphere micro-clusters indexed by a two-level R-tree.
	// Its cost grows gently with dimensionality, making it the safe choice
	// for d ≳ 4.
	EngineMuTree Engine = iota
	// EngineCell is the grid engine (cells of side ε/√d over a sorted
	// non-empty-cell table): any two points sharing a cell are ε-neighbors,
	// so populated cells go core wholesale and the remaining queries scan a
	// few adjacent cells. It is typically the fastest engine at d ≤ 3 but
	// its neighbor-cell enumeration grows exponentially in d. Runs
	// parallel over cells — WithWorkers caps it, default GOMAXPROCS.
	EngineCell
	// EngineAuto profiles the dataset with cheap statistics (dimensionality
	// plus the cell-occupancy of a bounded sample) and picks between
	// EngineMuTree and EngineCell; ChooseEngine exposes the decision.
	EngineAuto
)

// String returns the engine's canonical short name, matching the names the
// mudbscan CLI and the mudbscand wire protocol use.
func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

var engineNames = [...]string{EngineMuTree: "mu", EngineCell: "cell", EngineAuto: "auto"}

// WithEngine selects the engine for Cluster and ClusterWithStats
// (default EngineMuTree). ClusterParallel and ClusterDistributed are
// themselves engines — their own parallel decompositions of the μR-tree
// algorithm — and ignore this option.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// ChooseEngine reports the concrete engine EngineAuto would run on this
// input: the decision is made from cheap statistics (n, d, and the
// cell-occupancy distribution of a deterministic ≤1024-point sample) without
// building any index. When the profile favors the grid, one further pass
// (a compare per coordinate) confirms the grid can index the data at this eps
// (see ErrCellRange). Degenerate inputs — empty data or a non-positive or
// non-finite eps — and data that fails that check fall back to EngineMuTree.
func ChooseEngine(points [][]float64, eps float64, minPts int) Engine {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return EngineMuTree
	}
	return autoEngine(points, eps, minPts)
}

// autoEngine is EngineAuto's decision: the cell engine when the sample
// profile favors it and the grid can index every coordinate at this ε
// (one pass, one compare per coordinate), the μR-tree engine otherwise.
func autoEngine[P ~[]float64](pts []P, eps float64, minPts int) Engine {
	if cell.Decide(cell.Sample(pts, eps, minPts)) && cell.Representable(pts, eps) {
		return EngineCell
	}
	return EngineMuTree
}

// ErrCellRange is returned when EngineCell is requested for data the grid
// cannot index: some coordinate lies 2^52 or more cells (of side ε/√d) from
// the origin, where float64 no longer tells neighbouring cells apart.
// EngineMuTree has no such limit and EngineAuto falls back to it; translating
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
	fanout       int
	disableWndq  bool
	workers      int
	sampleSize   int
	seed         int64
	distSerial   bool
	hardened     bool
	faultSeed    *int64
	scratch      *Scratch
	engine       Engine
	streamLambda float64
	streamPrune  float64
}

// Scratch is reusable query-scratch storage lent to clustering runs: the
// per-worker ε-query arenas of PR 3's allocation-free *Into tier, owned by
// the caller instead of the run, so a long-lived worker (the mudbscand job
// pool) keeps warm buffers across requests. Pass one Scratch per serving
// worker via WithScratch; a Scratch must never be lent to two concurrent
// runs. The zero value is not usable — construct with NewScratch.
type Scratch struct {
	arenas []*core.Arena
}

// NewScratch creates an empty scratch pool; runs grow it on demand.
func NewScratch() *Scratch { return &Scratch{} }

// grown returns the first n arenas, creating any that do not exist yet.
func (s *Scratch) grown(n int) []*core.Arena {
	for len(s.arenas) < n {
		s.arenas = append(s.arenas, &core.Arena{})
	}
	return s.arenas[:n]
}

// WithScratch lends s to the run: Cluster borrows its first arena,
// ClusterParallel one arena per worker. Grown buffers return to s when the
// run completes. ClusterDistributed ignores it (each simulated rank owns
// per-run scratch).
func WithScratch(s *Scratch) Option { return func(c *config) { c.scratch = s } }

// Option customizes a clustering run.
type Option func(*config)

// WithRTreeFanout sets the node capacity of both μR-tree levels
// (default 16).
func WithRTreeFanout(m int) Option { return func(c *config) { c.fanout = m } }

// WithoutQueryReduction disables core identification without queries; every
// point is queried, as in classic DBSCAN. The result is unchanged, only
// slower — this knob exists for measurement.
func WithoutQueryReduction() Option { return func(c *config) { c.disableWndq = true } }

// WithWorkers sets the goroutine count for ClusterParallel
// (default GOMAXPROCS).
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

// WithHardenedComms makes ClusterDistributed wrap every point-to-point
// message in a sequence-numbered, checksummed envelope with ack/retransmit
// and duplicate suppression. The clustering is byte-identical to the default
// trusting transport; the run additionally tolerates message loss,
// duplication, reordering, and corruption, and terminates with an error
// wrapping dist.ErrRankLost instead of hanging when a rank becomes
// permanently unreachable.
func WithHardenedComms() Option { return func(c *config) { c.hardened = true } }

// WithFaultInjection routes ClusterDistributed's messages through a
// deterministic fault-injecting network (drops, duplicates, reordering,
// delays, and bit corruption, reproducible from the seed) and implies
// WithHardenedComms. The clustering remains exact — this knob exists for
// testing and for demonstrating the reliability layer.
func WithFaultInjection(seed int64) Option {
	return func(c *config) { c.hardened = true; c.faultSeed = &seed }
}

// validate checks the inputs shared by all entry points and converts the
// point rows into the internal representation without copying coordinates.
func validate(points [][]float64, eps float64, minPts int) ([]geom.Point, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mudbscan: eps must be a positive finite number, got %g", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("mudbscan: minPts must be at least 1, got %d", minPts)
	}
	if len(points) == 0 {
		return nil, nil
	}
	if tooManyPoints(len(points)) {
		return nil, ErrTooManyPoints
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("mudbscan: points must have at least one dimension")
	}
	pts := make([]geom.Point, len(points))
	for i, row := range points {
		if len(row) != dim {
			return nil, fmt.Errorf("mudbscan: point %d has %d coordinates, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mudbscan: point %d coordinate %d is not finite", i, j)
			}
		}
		pts[i] = geom.Point(row)
	}
	return pts, nil
}

// Cluster returns the exact DBSCAN clustering of points under the given ε
// and MinPts, computed by the engine WithEngine selects (default the
// sequential μR-tree engine; see Engine). A dataset may hold at most 2^31−1
// points; a larger one is refused with ErrTooManyPoints before any engine
// runs.
func Cluster(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, error) {
	r, _, err := ClusterWithStats(points, eps, minPts, opts...)
	return r, err
}

// ClusterWithStats is Cluster plus the run's work statistics. Under
// EngineCell the micro-cluster fields describe grid cells instead (NumMCs is
// the non-empty-cell count, QueriesSaved the points proven core by the
// dense-cell shortcut) and the step split folds the grid's five phases into
// the paper's four.
func ClusterWithStats(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, *SeqStats, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pts, err := validate(points, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	engine := cfg.engine
	switch engine {
	case EngineAuto:
		engine = autoEngine(pts, eps, minPts)
	case EngineCell:
		if !cell.Representable(pts, eps) {
			return nil, nil, ErrCellRange
		}
	}
	if engine == EngineCell {
		copts := cell.Options{Workers: cfg.workers}
		if cfg.scratch != nil {
			w := cfg.workers
			if w <= 0 {
				w = runtime.GOMAXPROCS(0) // cell.Run's own default
			}
			copts.Arenas = cfg.scratch.grown(w)
		}
		r, st := cell.Run(pts, eps, minPts, copts)
		return r, cellSeqStats(st), nil
	}
	copts := core.Options{
		Fanout:      cfg.fanout,
		DisableWndq: cfg.disableWndq,
	}
	if cfg.scratch != nil {
		copts.Arenas = cfg.scratch.grown(1)
	}
	r, st := core.Run(pts, eps, minPts, copts)
	return r, st, nil
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

// ClusterParallel runs the multi-core shared-memory μDBSCAN: the engine
// behind Cluster on WithWorkers goroutines (default GOMAXPROCS). The result
// is exact; which cluster a border point joins may differ between runs (as
// DBSCAN permits).
func ClusterParallel(points [][]float64, eps float64, minPts int, opts ...Option) (*Result, *ParStats, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pts, err := validate(points, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	copts := core.Options{
		Fanout:      cfg.fanout,
		DisableWndq: cfg.disableWndq,
		Workers:     cfg.workers,
	}
	if copts.Workers <= 0 {
		copts.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.scratch != nil {
		copts.Arenas = cfg.scratch.grown(copts.Workers)
	}
	r, st := core.Run(pts, eps, minPts, copts)
	return r, st, nil
}

// ClusterDistributed runs μDBSCAN-D over the given number of simulated
// message-passing ranks (a power of two). The result is exact and identical
// to Cluster's for every rank count.
func ClusterDistributed(points [][]float64, eps float64, minPts, ranks int, opts ...Option) (*Result, *DistStats, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pts, err := validate(points, eps, minPts)
	if err != nil {
		return nil, nil, err
	}
	if ranks < 1 {
		return nil, nil, fmt.Errorf("mudbscan: ranks must be at least 1, got %d", ranks)
	}
	exec := dist.ExecConcurrent
	if cfg.distSerial {
		exec = dist.ExecSerial
	}
	dopts := dist.Options{
		SampleSize: cfg.sampleSize,
		Seed:       cfg.seed,
		Core:       core.Options{Fanout: cfg.fanout, DisableWndq: cfg.disableWndq},
		Exec:       exec,
		Hardened:   cfg.hardened,
	}
	if cfg.faultSeed != nil {
		dopts.Transport = chaos.New(chaos.Eventual(*cfg.faultSeed))
	}
	return dist.MuDBSCAND(pts, eps, minPts, ranks, dopts)
}

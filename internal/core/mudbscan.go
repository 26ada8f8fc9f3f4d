// Package core implements μDBSCAN (§IV of the paper): exact DBSCAN
// clustering that identifies most core points *without* ε-neighborhood
// queries by exploiting micro-clusters, and accelerates the remaining
// queries through the two-level μR-tree and reachable micro-cluster lists.
//
// The algorithm runs in four steps:
//
//  1. μR-tree construction and discovery of preliminary clusters: points are
//     grouped into micro-clusters; a micro-cluster with at least MinPts
//     members yields "wndq-core" points (core without neighborhood query:
//     its centre, and every member within ε of its MinPts closest, which
//     covers Lemmas 1 and 2) and preliminary unions.
//  2. Reachable micro-cluster computation (Lemma 3) to bound every later
//     search to MCs whose centers are within 3ε.
//  3. Clustering: each point not yet known core and not within ε of the
//     MinPts closest members of a reachable MC runs one exact
//     ε-neighborhood query confined to its filtered reachable MCs — asking a
//     micro-cluster that is already one finished component only for its ε/2
//     ball, and again in full if that leaves it undecided; dense
//     ε/2-neighborhoods dynamically mark further wndq-cores, saving their
//     queries too.
//  4. Post-processing: wndq-core points are merged with every other core
//     within ε by targeted distance checks (Algorithm 7), and every non-core
//     point joins the cluster of its smallest-id core neighbor, read from the
//     neighborhood its query stored (Algorithm 8).
//
// The result is exactly the clustering of traditional DBSCAN: the same core
// points, the same core-point partition, the same number of clusters and the
// same noise set (Theorem 1). Borders follow dbscan.Brute's rule, so the
// labels are Brute's, byte for byte, at any worker count.
//
// There is one driver. Its state is the parallel representation — packed
// atomic status flags, a lock-free union-find, per-worker arenas — and every
// step is a par.For over micro-clusters or points, which at one worker runs
// inline in index order: sequential μDBSCAN is the Workers ≤ 1 case, and the
// shared-memory version the paper lists as future work (§VII) is the same
// code at Workers = k. DESIGN.md §8 carries the exactness argument.
package core

import (
	"math"
	"sync/atomic"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
	"mudbscan/internal/par"
	"mudbscan/internal/unionfind"
)

// Options tunes μDBSCAN; the zero value gives the algorithm exactly as
// published. The Disable* knobs exist for the ablation benchmarks and never
// affect exactness, only performance.
type Options struct {
	// NoDeferral disables the 2ε micro-cluster creation deferral (more MCs).
	NoDeferral bool
	// DisableWndq disables core identification without queries: every point
	// is queried, as in classic DBSCAN (micro-clusters then only accelerate
	// the queries).
	DisableWndq bool
	// Workers is the number of goroutines every step runs on. Zero or one
	// means sequential: the steps run inline in index order. The output is
	// the same at every worker count.
	Workers int
}

// StepTimes records the wall-clock split of a run over the paper's four
// reported phases (Table III). Every phase runs on Options.Workers, so each
// entry is the wall time of its (possibly parallel) section.
type StepTimes struct {
	TreeConstruction time.Duration // micro-cluster + μR-tree build, MC classification
	FindingReachable time.Duration // reachable micro-cluster lists
	Clustering       time.Duration // preliminary unions + neighborhood queries
	PostProcessing   time.Duration // wndq-core merging + noise rectification
}

// Total returns the sum of all step durations.
func (s StepTimes) Total() time.Duration {
	return s.TreeConstruction + s.FindingReachable + s.Clustering + s.PostProcessing
}

// Stats reports the work performed by a μDBSCAN run.
type Stats struct {
	// NumMCs is m, the number of micro-clusters formed.
	NumMCs int
	// Deferred is the number of points step 1's scan deferred: no centre
	// strictly within ε, one within 2ε (Algorithm 3's rule, §IV-B1).
	Deferred int
	// Queries is the number of ε-neighborhood queries executed.
	Queries int
	// Requeries is the number of those queries that ran twice: step 3 first
	// asks the micro-clusters it has settled for their ε/2 balls only, and a
	// point that this leaves short of MinPts is queried again in full.
	Requeries int
	// QueriesSaved is the number of points proven core without a query
	// (wndq-core points from steps 1 and 3: a micro-cluster's centre or
	// MinPts-radius, a dense ε/2-neighborhood).
	QueriesSaved int
	// DistCalcs counts point-to-point distance computations across all
	// phases, including post-processing.
	DistCalcs int64
	// CenterCalcs counts the distance computations of steps 3 and 4 that
	// have a micro-cluster centre at one end — the 2ε search-space tests and
	// the centre-to-centre distances post-processing prunes by. They are
	// kernel calls like any other but were never part of DistCalcs, which
	// keeps its meaning along the benchmark ledger.
	CenterCalcs int64
	// WndqFromMCs counts the saved queries of step 1: in every micro-cluster
	// Z with at least MinPts members, its centre and every member p with
	// d(p, cZ) + r_k(Z) < ε(1−δ), r_k(Z) being the distance from the centre
	// to its MinPts-th closest member (the centre counting at 0). Lemmas 1
	// and 2 are cases of that test.
	WndqFromMCs int
	// WndqDynamic counts those of step 3: members of a queried core's dense
	// ε/2-neighborhood, and points the same MinPts-radius test proves core
	// from a reachable micro-cluster's centre before their query.
	WndqDynamic int
	// Workers is the resolved worker count.
	Workers int
	// Steps is the wall-clock phase split.
	Steps StepTimes
}

// QuerySavedPct returns the percentage of potential queries saved.
func (s *Stats) QuerySavedPct() float64 {
	total := s.Queries + s.QueriesSaved
	if total == 0 {
		return 0
	}
	return 100 * float64(s.QueriesSaved) / float64(total)
}

// Run clusters pts with μDBSCAN and returns the exact DBSCAN result together
// with run statistics. It is RunSet over a copy of pts.
func Run(pts []geom.Point, eps float64, minPts int, opts Options) (*clustering.Result, *Stats) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{}
	}
	return RunSet(geom.PointSetFromPoints(len(pts[0]), pts), eps, minPts, opts)
}

// RunSet is Run over a set the μR-tree adopts (mc.BuildSet): the
// coordinates are never copied. Their rows are reordered during the call
// and are bit-identical on return; nobody else may read or write them
// meanwhile.
func RunSet(set *geom.PointSet, eps float64, minPts int, opts Options) (*clustering.Result, *Stats) {
	if set.Len() == 0 {
		return &clustering.Result{}, &Stats{}
	}
	lr := runLocal(set, set.Len(), eps, minPts, opts, Halo{})
	return clustering.FromUnionLabels(lr.Comp, lr.Core), lr.Stats
}

// Halo is what a rank-local run needs of the ranks that own its halo copies.
type Halo struct {
	// IDs are the global ids of the block's rows: a border joins its core
	// neighbor of smallest global id, as in dbscan.Brute.
	IDs []int64
	// Swap is called once, after step 3, with one flag per row: the first
	// localCount are the owned rows' core flags, exact by then because the
	// halo holds their whole ε-neighborhoods, and Swap fills in the rest with
	// the halo copies' exact flags, as their owners computed them.
	Swap func(core []bool)
}

// LocalResult is the rank-local state that μDBSCAN-D's merge phase consumes.
// Indices are rows of the rank's block (see RunLocal); rows from localCount
// on are halo copies owned by other ranks.
type LocalResult struct {
	// Core flags: exact for every row once Halo.Swap has run; without it, a
	// sound lower bound for the halo rows.
	Core []bool
	// Comp[i] is the local union-find component representative of point i
	// (the smallest index of its component). Every owned border is in the
	// component of its core neighbor of smallest global id.
	Comp  []int32
	Stats *Stats
}

// RunLocal executes μDBSCAN over a rank's block of local rows followed by
// halo rows, treating only the first localCount as owned by this rank: halo
// points serve as neighbors (and may be proven core, which is sound because
// coreness is monotone in the visible evidence) but are never queried. After
// step 3 it swaps core flags through halo.Swap and promotes every halo copy
// its owner proved core, so step 4 links it with every core within ε; then
// each owned border joins its core neighbor of smallest halo.IDs. With
// localCount == set.Len() the cores and their components are exactly
// μDBSCAN's. Like RunSet, it never copies the block: its rows are reordered
// during the call and are bit-identical on return, and nobody else may read
// or write them meanwhile.
func RunLocal(set *geom.PointSet, eps float64, minPts int, localCount int, opts Options, halo Halo) *LocalResult {
	if set.Len() == 0 {
		return &LocalResult{Stats: &Stats{}}
	}
	return runLocal(set, localCount, eps, minPts, opts, halo)
}

// runLocal runs μDBSCAN's four steps over set, of which the first localCount
// points are local, with the flag swap between steps 3 and 4.
func runLocal(set *geom.PointSet, localCount int, eps float64, minPts int, opts Options, halo Halo) *LocalResult {
	st := &Stats{}

	// Step 1: micro-clusters, the μR-tree and the centre distances, over the
	// caller's block in place. The block goes back into the caller's order
	// once the result is out.
	start := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ix := buildIndex(set, eps, minPts, opts)
	defer ix.Restore()
	st.Steps.TreeConstruction = time.Since(start)
	st.NumMCs, st.Deferred = ix.NumMCs(), ix.Deferred()

	// Step 2: reachable micro-cluster lists.
	start = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ix.ComputeReachable()
	st.Steps.FindingReachable = time.Since(start)

	// Step 3: preliminary clusters from the micro-clusters of at least
	// MinPts members, then neighborhood queries with dynamic wndq-core
	// identification.
	start = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	r := newRun(ix, eps, minPts, localCount, opts)
	if !opts.DisableWndq {
		r.preliminaryClusters()
	}
	r.processRemaining()
	st.Steps.Clustering = time.Since(start)

	if halo.Swap != nil {
		r.swap(halo.Swap)
	}

	// Step 4: final connections.
	start = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	r.postProcessCore()
	r.assignBorders(halo.IDs)
	st.Steps.PostProcessing = time.Since(start)

	return r.result(st)
}

// buildIndex is step 1: the μR-tree over set, which it adopts and reorders
// until Restore, without the reachable lists (step 2).
func buildIndex(set *geom.PointSet, eps float64, minPts int, opts Options) *mc.Index {
	return mc.BuildSet(set, eps, minPts, mc.Options{
		NoDeferral:    opts.NoDeferral,
		SkipReachable: true,
		Workers:       opts.Workers,
	})
}

// Per-point status bits. Each is monotone — raised at most once, never
// cleared — which is what lets workers act on a possibly stale read: a bit
// seen set is set for good, and a bit seen clear is re-examined by a later
// step (see DESIGN.md §8).
const (
	flagCore uint32 = 1 << iota // proven core
	flagWndq                    // core, proven without a query (skip its query)
)

// flags holds the status bits of every point, one byte per point packed four
// to an atomic word. processPoint loads a random point's byte for every
// neighbor of every queried core, so the table has to stay as dense as the
// []bool it replaces: a []atomic.Bool is four bytes a flag, and that load
// alone cost three times as much on the 5-d household workload.
type flags []atomic.Uint32

func newFlags(n int) flags { return make(flags, (n+3)/4) }

// get returns point i's status byte.
func (f flags) get(i int) uint32 { return f[i>>2].Load() >> (uint(i&3) * 8) & 0xff }

// raise sets bits on point i and returns its status byte from just before:
// of all callers racing to raise a bit, exactly one sees it clear. A plain
// load comes first, so re-raising a bit that is already up costs no CAS.
func (f flags) raise(i int, bits uint32) uint32 {
	w, shift := &f[i>>2], uint(i&3)*8
	for {
		word := w.Load()
		old := word >> shift & 0xff
		if old&bits == bits || w.CompareAndSwap(word, word|bits<<shift) {
			return old
		}
	}
}

// worker is the state one goroutine owns for the whole run: its query
// scratch, the lists it fills lazily, and its share of the counters. Worker
// w touches workers[w] and nothing else of the kind, so none of it is
// synchronized; the slice is sized once in newRun and never grows, which is
// what makes holding a *worker across a step safe. The pad keeps adjacent
// workers' counters on distinct cache lines.
type worker struct {
	// Buffers reused across every neighborhood query; processPoint runs
	// allocation-free once the buffers have warmed to the largest
	// neighborhood. dist[k] is the squared distance to nbhd[k], handed over
	// by the query's leaf scans.
	nbhd []int
	dist []float64
	// centerDist[j] is the distance from one point to the centre of the j-th
	// micro-cluster of a reachable list, gathered in one kernel call. Step 3
	// keeps the squared distances from the queried point, bounded at 2ε;
	// step 4 keeps in live the part of a micro-cluster's list that is not
	// dead, and in centerDist the distances (not squared) from its centre.
	centerDist []float64
	live       []int32

	// nonCore lists the non-core points this worker queried, in query
	// order, and nonCoreIDs holds their ε-neighborhoods back to back (see
	// stored).
	nonCore    []nonCoreEntry
	nonCoreIDs []int32

	queries     int
	requeries   int
	wndqFromMCs int
	wndqDynamic int
	distCalcs   int64
	centerCalcs int64
	_           [64]byte
}

// nonCoreEntry keeps a non-core point together with where its
// ε-neighborhood starts in its worker's nonCoreIDs, from which Algorithm 8
// picks its cluster once every core flag is final.
type nonCoreEntry struct {
	id  int32
	off int32
}

// stored returns the ε-neighborhood of the worker's k-th non-core point, a
// capped view into nonCoreIDs: it runs up to where the next one starts.
func (w *worker) stored(k int) []int32 {
	end := int32(len(w.nonCoreIDs))
	if k+1 < len(w.nonCore) {
		end = w.nonCore[k+1].off
	}
	return w.nonCoreIDs[w.nonCore[k].off:end:end]
}

// run carries the mutable state of one μDBSCAN execution.
type run struct {
	eps        float64
	minPts     int
	localCount int
	ix         *mc.Index
	opts       Options

	// far1 and far2 are ε(1+δ) and 2ε(1+δ), the margins of postProcessCore's
	// triangle-inequality skips, and near is ε(1−δ), the margin of the
	// MinPts-radius certificate (see pruneSlack); NaN, which no bound
	// reaches, where the δ argument does not hold.
	far1, far2, near float64

	uf      *unionfind.Concurrent
	flags   flags
	workers []worker
	// mcWhole[id] reports that MC id has at least MinPts members: every core
	// among its members shares the centre's union-find component by the
	// start of step 4 (its centre is core, and every member lies strictly
	// within ε of it: step 1's cores are unioned with the centre there, step
	// 3's when they are promoted or proven by their query, and a halo copy
	// when the swap promotes it). Set by preliminaryClusters, where each MC is
	// handled by exactly one worker; read elsewhere only after that step.
	mcWhole []bool
	// rk[id] is r_k of MC id: the distance from its centre to its
	// MinPts-th closest member, the centre counting at 0; +Inf for one with
	// fewer than MinPts members.
	// Any point p with d(p, centre) + rk[id] < ε has the MinPts members
	// within ε (see provenByRadius). Set by preliminaryClusters; nil when
	// wndq-cores are disabled.
	rk []float64
	// mcClass[id] is what step 4 can find in MC id (see classifyMCs): mcDead,
	// mcMixed, or the point that stands for its one component. Filled at the
	// barrier between steps 3 and 4.
	mcClass []int32
}

func newRun(ix *mc.Index, eps float64, minPts, localCount int, opts Options) *run {
	n := ix.Points.Len()
	r := &run{
		eps: eps, minPts: minPts, localCount: localCount,
		ix: ix, opts: opts,
		far1: math.NaN(), far2: math.NaN(), near: math.NaN(),
		uf:      unionfind.NewConcurrent(n),
		flags:   newFlags(n),
		workers: make([]worker, max(opts.Workers, 1)),
		mcWhole: make([]bool, ix.NumMCs()),
	}
	if eps2 := eps * eps; eps2 > 0x1p-900 && eps2 < 0x1p900 && ix.Dim < 1<<20 {
		r.far1, r.far2, r.near = eps*(1+pruneSlack), 2*eps*(1+pruneSlack), eps*(1-pruneSlack)
	}
	return r
}

// each runs fn(w, i) for every i in [0, n) across the run's workers; at one
// worker that is a plain loop in index order on the calling goroutine.
func (r *run) each(n int, fn func(w *worker, i int)) {
	par.For(len(r.workers), n, func(w, i int) { fn(&r.workers[w], i) })
}

// result closes the run: it folds the per-worker counters and unpacks
// components and flags. All unions are complete, so Find is exact and stable
// and the per-index writes are disjoint.
func (r *run) result(st *Stats) *LocalResult {
	lr := &LocalResult{
		Core:  make([]bool, r.ix.Points.Len()),
		Comp:  make([]int32, r.ix.Points.Len()),
		Stats: st,
	}
	for w := range r.workers {
		wk := &r.workers[w]
		st.Queries += wk.queries
		st.Requeries += wk.requeries
		st.WndqFromMCs += wk.wndqFromMCs
		st.WndqDynamic += wk.wndqDynamic
		st.DistCalcs += wk.distCalcs
		st.CenterCalcs += wk.centerCalcs
	}
	st.Workers = len(r.workers)
	// Every local point was either queried or had its query saved. (Under
	// concurrency a point can be promoted while its query is in flight; it
	// then counts as queried, and the wndq split may exceed QueriesSaved.)
	st.QueriesSaved = r.localCount - st.Queries
	r.each(len(lr.Comp), func(_ *worker, i int) {
		lr.Comp[i] = int32(r.uf.Find(i))
		lr.Core[i] = r.flags.get(i)&flagCore != 0
	})
	return lr
}

// preliminaryClusters implements Algorithm 4 with one core proof, the
// MinPts-radius: in a micro-cluster Z with at least MinPts members, a member
// p with d(p, cZ) + r_k(Z) < ε(1−δ) is a wndq-core (DESIGN.md §8, cut (g)).
// The paper's Lemma 1 (a DMC's inner circle) and Lemma 2 (a CMC's centre)
// are cases of it. The centre is marked first and unconditionally: Z's
// MinPts members within ε of it are the exact certificate at d = 0. The MC is
// flagged "whole": every core it will ever hold joins the centre's component
// as it is proven (markWndq, processPoint; unions only merge), which steps 3
// and 4 exploit.
func (r *run) preliminaryClusters() {
	r.rk = make([]float64, r.ix.NumMCs())
	r.each(r.ix.NumMCs(), func(w *worker, k int) {
		if len(r.ix.Members(k)) < r.minPts {
			r.rk[k] = math.Inf(1)
			return
		}
		radius := r.minPtsRadius(w, k)
		r.rk[k], r.mcWhole[k] = radius, true
		center := int32(r.ix.CenterID(k))
		r.markWndq(w, center, true)
		for _, p := range r.ix.Members(k) {
			if p != center && r.ix.CenterDist[p]+radius < r.near {
				r.markWndq(w, p, true)
			}
		}
	})
}

// minPtsRadius returns r_k of micro-cluster k, which has at least MinPts
// members: the MinPts-th smallest of its members' CenterDist, the centre's 0
// included. The selection runs in the worker's centerDist scratch, which
// step 1 does not otherwise use.
func (r *run) minPtsRadius(w *worker, k int) float64 {
	nth := max(r.minPts, 1) - 1
	d := w.centerDist[:0]
	for _, q := range r.ix.Members(k) {
		d = append(d, r.ix.CenterDist[q])
	}
	w.centerDist = d
	// Hoare's selection: expected linear, and the distances are finite (a
	// member is strictly within ε of its centre).
	lo, hi := 0, len(d)-1
	for lo < hi {
		pivot := d[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for d[i] < pivot {
				i++
			}
			for d[j] > pivot {
				j--
			}
			if i <= j {
				d[i], d[j] = d[j], d[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return d[nth]
		}
	}
	return d[nth]
}

// provenByRadius reports whether some micro-cluster Z of reach, whose centre
// lies at squared distance pz2[j] from p, proves p core by its MinPts-radius:
// d(p, cZ) + r_k(Z) < ε(1−δ) puts Z's MinPts closest members strictly within ε
// of p, by the triangle inequality and the δ argument of pruneSlack
// (DESIGN.md §8, cut (g)). Only a centre strictly within ε can pass, so the
// test is confined to those.
func (r *run) provenByRadius(pz2 []float64, reach []int32) bool {
	if r.rk == nil {
		return false
	}
	eps2 := r.eps * r.eps
	for j, d2 := range pz2 {
		if d2 < eps2 && math.Sqrt(d2)+r.rk[reach[j]] < r.near {
			return true
		}
	}
	return false
}

// markWndq declares point id core without a query; the raise makes the
// transition exactly-once, so exactly one worker counts the point. fromMC
// records whether it came from MC classification (step 1) or a dense
// ε/2-neighborhood or MinPts-radius in step 3. A point of a whole
// micro-cluster is unioned with its centre (strictly within ε, and core),
// which keeps the MC's cores in one component. The split only counts local
// points: halo points were never going to be queried here.
func (r *run) markWndq(w *worker, id int32, fromMC bool) {
	if r.flags.raise(int(id), flagCore|flagWndq)&flagCore != 0 {
		return
	}
	if z := int(r.ix.PointMC[id]); r.mcWhole[z] {
		r.uf.Union(int(id), r.ix.CenterID(z))
	}
	if int(id) >= r.localCount {
		return
	}
	if fromMC {
		w.wndqFromMCs++
	} else {
		w.wndqDynamic++
	}
}

// processRemaining implements Algorithm 6: one exact ε-neighborhood query
// for every local point not known core, with dense ε/2-balls promoting their
// members to wndq-core.
func (r *run) processRemaining() {
	r.each(r.localCount, func(w *worker, i int) {
		if r.flags.get(i)&flagWndq == 0 {
			r.processPoint(w, i)
		}
	})
}

// processPoint runs the Algorithm 6 body for one point: the ε-neighborhood
// query through the worker's reused scratch buffers, the inner-circle pass,
// and the core/border/noise resolution. In steady state (warm buffers,
// core-point expansion) it performs zero heap allocations — the regression
// test pins that down with testing.AllocsPerRun.
//
// The query is core-first. The cores of a whole micro-cluster Z end in one
// component (preliminaryClusters), and Z is settled for p when p is bound to
// end in that component if it is core at all — its centre, a flagged core,
// lies strictly within ε of p, or shares a component with the centre of p's
// own micro-cluster, if that one is whole. Linking p to a
// member of a settled Z is then a no-op but for one union with the centre
// (the argument of the skip in the link loop below, made before the distances
// are computed instead of after), so all p needs of Z is its ε/2 ball, for
// the promotion, and that centre. Z is walked at ε/2 and its centre, when it
// lies in the annulus the walk leaves out, joins the hits with the d² the 2ε
// test just computed. The hits are a subset of N_ε(p) that holds every ε/2
// neighbor: MinPts of them prove p core and the promotion sees what it always
// saw. Fewer prove nothing, and the query is rerun in full (DESIGN.md §8,
// cut (f)).
//
// Before any walk, a micro-cluster whose centre lies within ε may prove p
// core by its MinPts-radius (provenByRadius); p is then a wndq-core like a
// promoted one, and its query is saved (cut (g)).
//
//mulint:noalloc static twin of TestProcessPointZeroAllocs (allocs_test.go); the cold paths below carry explicit allows
func (r *run) processPoint(w *worker, i int) {
	p := r.ix.Point(i)
	half := r.eps / 2
	eps2, half2, prune2 := r.eps*r.eps, half*half, 4*r.eps*r.eps
	own := int(r.ix.PointMC[i])
	reach := r.ix.Reach(own)
	// A core p ends in its own micro-cluster's centre's component when that
	// micro-cluster is whole. The root may go stale; a mismatch below only
	// costs the full walk.
	rootP := -1
	if r.mcWhole[own] {
		rootP = r.uf.Find(r.ix.CenterID(own))
	}
	settled := false
	w.nbhd, w.dist = w.nbhd[:0], w.dist[:0]
	w.centerDist = r.ix.CenterDistSq(w.centerDist[:0], p, reach, prune2)
	w.centerCalcs += int64(len(reach)) // the query's 2ε tests
	if r.provenByRadius(w.centerDist, reach) {
		r.markWndq(w, int32(i), false)
		return
	}
	for j, rid := range reach {
		pz2 := w.centerDist[j]
		if pz2 >= prune2 {
			continue
		}
		z := int(rid)
		cz := r.ix.CenterID(z)
		radius, short := r.eps, r.mcWhole[z] && (pz2 < eps2 || r.uf.Find(cz) == rootP)
		if short {
			radius, settled = half, true
		}
		if r.ix.AuxOverlapsRegion(z, p, radius) {
			var calcs int
			w.nbhd, calcs = r.ix.AuxSphereDistInto(z, p, radius, w.nbhd, &w.dist)
			w.distCalcs += int64(calcs)
		}
		if short && pz2 >= half2 && pz2 < eps2 {
			w.nbhd, w.dist = append(w.nbhd, cz), append(w.dist, pz2)
		}
	}
	w.queries++
	if settled && len(w.nbhd) < r.minPts {
		// Undecided: a settled micro-cluster may hold the rest of MinPts in
		// the annulus. The non-core path below wants N_ε(p) whole and in
		// reach-list order, so the short hits are dropped, not topped up.
		var calcs int
		w.dist = w.dist[:0]
		w.nbhd, calcs, _ = r.ix.EpsNeighborhoodDistInto(p, i, w.nbhd[:0], &w.dist)
		w.distCalcs += int64(calcs)
		w.centerCalcs += int64(len(reach))
		w.requeries++
	}
	nbhd := w.nbhd

	if len(nbhd) < r.minPts {
		// Not core: its cluster, if any, is its smallest-id core neighbor's,
		// known only once every core flag is final (assignBorders). A
		// non-core neighborhood is below MinPts, so the offsets fit while
		// the worker's arena stays under 2³¹ ids.
		if len(w.nonCoreIDs) > math.MaxInt32-len(nbhd) {
			panic("core: non-core neighborhoods past 2³¹ ids on one worker") //mulint:allow noalloc/alloc cold path: the run cannot go on
		}
		w.nonCore = append(w.nonCore, nonCoreEntry{id: int32(i), off: int32(len(w.nonCoreIDs))}) //mulint:allow noalloc/alloc non-core path: amortised growth of the deferred list
		for _, q := range nbhd {
			w.nonCoreIDs = append(w.nonCoreIDs, int32(q))
		}
		return
	}

	// The flag goes up before any link below: two queried cores within ε of
	// each other each publish, then read the other's flag, so at least one
	// of them sees a core and performs the union. A core of a whole
	// micro-cluster joins its centre (strictly within ε, and core) itself,
	// as markWndq's promotions do, so the run skip below never rests on
	// another queried core's links.
	r.flags.raise(i, flagCore)
	if r.mcWhole[own] {
		r.uf.Union(i, r.ix.CenterID(own))
	}
	// Dynamic wndq-core promotion (Algorithm 6, FIND-NBHD lines 18-21):
	// a dense ε/2-ball proves all its members core (their ε-balls
	// contain it entirely). The inner-circle test reads the squared
	// distances the query's leaf scans handed over; no kernel call.
	if !r.opts.DisableWndq {
		innerCount := 0
		for _, d2 := range w.dist {
			if d2 < half2 {
				innerCount++
			}
		}
		if innerCount >= r.minPts {
			for k, q := range nbhd {
				if w.dist[k] < half2 && q != i {
					r.markWndq(w, int32(q), false)
				}
			}
		}
	}
	// i links with every flagged core among its hits. A hit that is in
	// truth core but whose flag is not up yet loses nothing: either it is
	// being queried, and having published its own flag before linking it will
	// see i's, or it is (or will be, a halo copy after the swap)
	// wndq-promoted, and postProcessCore re-links every wndq-core with all
	// cores within ε. Hits arrive grouped by micro-cluster: each reachable
	// micro-cluster contributes one contiguous run (a settled one its ε/2
	// ball, then its centre). Once i has been unioned with a flagged core of a
	// whole micro-cluster, the rest of that run is skipped: every core it will
	// hold ends in the centre's component, which is now i's, so every one of
	// those links is a no-op. The run's end is found by bisection on PointMC,
	// a few loads in place of one per hit.
	for k := 0; k < len(nbhd); {
		q := nbhd[k]
		k++
		if q == i || r.flags.get(q)&flagCore == 0 {
			continue
		}
		r.uf.Union(i, q)
		if z := r.ix.PointMC[q]; r.mcWhole[z] {
			lo, hi := k, len(nbhd) // the first hit of another micro-cluster lies in [lo, hi]
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); r.ix.PointMC[nbhd[mid]] == z {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			k = lo
		}
	}
}

// postProcessCore implements Algorithm 7: every wndq-core point is merged
// with every core point strictly within ε found among the members of its
// filtered reachable micro-clusters. Targeted distance checks only — no
// neighborhood queries. All core flags are final by now (the clustering
// step's barrier has passed), so nothing read here is stale.
//
// As in the paper's pseudocode, the distance computation is skipped when
// the two cores already share a cluster. Two exploitations of the union
// structure cut the cost well below a naive per-candidate Same(), both sound
// under concurrency because unions only merge:
//
//   - p's own root is cached across candidates; a candidate whose root
//     matches was already merged with p (conclusive — set membership only
//     grows), and a stale mismatch merely costs a redundant distance check
//     and a no-op union, never a lost edge;
//   - every micro-cluster is classified once, before the pass, by what a
//     wndq-core can find in it (classifyMCs): one that can hold no edge is
//     dropped from every reach list, one whose cores share a single component
//     for good is decided by one representative lookup — before its centre
//     is even looked at — and left after the first merging union. Only the
//     rest take the per-member path. When A is whole, its wndq-cores all
//     share its centre's component, so that lookup is made once for A, as
//     its reach list is compacted (liveReach), not once per wndq-core.
//
// The pass runs micro-cluster by micro-cluster, because what prunes it is
// the triangle inequality on the centres — the argument of Lemmas 1–3 — and
// a micro-cluster's wndq-cores share one centre A. With d(·,·) the distances
// the kernels compute (CenterDist, and d(cA, cZ) taken once per reachable Z
// into the worker's scratch):
//
//   - d(cA, cZ) − d(p, cA) ≥ 2ε(1+δ) puts p at least 2ε from cZ, so Z fails
//     the 2ε rule without p touching its centre;
//   - |d(p, cZ) − d(q, cZ)| ≥ ε(1+δ) puts a member q of Z at least ε from p,
//     so the pair fails the ε test without touching q; in its per-MC form,
//     d(p, cZ) − r(Z) ≥ ε(1+δ), r(Z) the largest d(q, cZ) among Z's members
//     (Index.Radius), it does so for every member at once, before the
//     member loop.
//
// Each skip implies the float predicate it replaces (see pruneSlack), so
// pruning removes distance computations and never changes an outcome.
func (r *run) postProcessCore() {
	r.classifyMCs()
	r.each(r.ix.NumMCs(), r.mergeWndqCores)
}

// The classes of a micro-cluster as a target of step 4. Any value ≥ 0 is the
// third class, one-component, and names the point that stands for it.
const (
	mcDead  int32 = -1 // no edge can end here: the micro-cluster is never visited
	mcMixed int32 = -2 // decided member by member
)

// classifyMCs fills mcClass. The one thing mergeWndqCore does with a member
// q of a visited micro-cluster is a union if q is a flagged core, so an MC
// with no flagged core is dead. One whose flagged cores all have one root — a
// whole MC, by construction — is one component: a wndq-core either shares it,
// and the MC has nothing to add, or joins it by its first merging union, and
// the other members have nothing more. Both are read after the swap, where
// core flags are final, and "same component" only ever becomes true, so they
// hold through the pass whatever other workers union meanwhile (DESIGN.md
// §8).
func (r *run) classifyMCs() {
	r.mcClass = make([]int32, r.ix.NumMCs())
	r.each(len(r.mcClass), func(_ *worker, k int) {
		class, root := mcDead, 0
		if r.mcWhole[k] {
			class = int32(r.ix.CenterID(k))
		} else {
			for _, q := range r.ix.Members(k) {
				if r.flags.get(int(q))&flagCore == 0 {
					continue
				}
				if class == mcDead {
					class, root = q, r.uf.Find(int(q))
				} else if r.uf.Find(int(q)) != root {
					class = mcMixed
					break
				}
			}
		}
		r.mcClass[k] = class
	})
}

// pruneSlack is δ, the margin by which a triangle-inequality bound must
// clear a threshold before postProcessCore skips the kernel call the bound
// stands in for. A skip has to imply the float predicate it replaces
// (kern ≥ 4ε², kern ≥ ε²), and the bound is itself built from rounded kernel
// values: a d-dimensional one is off by less than (d+2)·2⁻⁵³ of itself (its
// terms are non-negative, nothing cancels), its root by half of that, and the
// distances entering a bound are below 3ε. Carried through, the roundings of
// a bound and of the kernel value it predicts come to less than
// (4d+20)·2⁻⁵³ of the squared threshold, against the 2δ the margin buys
// (DESIGN.md §8 has the steps): enough for any d < 2²⁰, as long as ε² is far
// from under- and overflow. newRun checks both and disables the skips
// otherwise.
const pruneSlack = 1e-9

// mergeWndqCores is postProcessCore's body for one micro-cluster: every
// wndq-core among its members against the reachable micro-clusters that are
// live for them (liveReach).
func (r *run) mergeWndqCores(w *worker, a int) {
	// The live part of A's reach list and d(cA, cZ) for each Z on it, filled
	// for the first wndq-core found.
	live, centerDist, filled := w.live[:0], w.centerDist[:0], false
	for _, pid := range r.ix.Members(a) {
		if r.flags.get(int(pid))&flagWndq == 0 {
			continue
		}
		if !filled {
			filled = true
			live = r.liveReach(live, a)
			centerDist = r.ix.CenterDistSq(centerDist, r.ix.Center(a), live, math.Inf(1))
			for j, d2 := range centerDist {
				centerDist[j] = math.Sqrt(d2)
			}
			w.centerCalcs += int64(len(live))
		}
		r.mergeWndqCore(w, pid, live, centerDist)
	}
	w.live, w.centerDist = live, centerDist
}

// liveReach appends to dst the micro-clusters of A's reach list that a
// wndq-core of A may still have an edge into: not dead and, when A is whole,
// not a one-component micro-cluster that already shares A's centre's
// component. Every core of a whole A is in that component by step 4
// (mcWhole), so the one-component test mergeWndqCore would repeat for each of
// A's wndq-cores is made once here; unions only merge, so a micro-cluster
// dropped by it has nothing to add whoever unions what meanwhile.
func (r *run) liveReach(dst []int32, a int) []int32 {
	rootA := -1
	if r.mcWhole[a] {
		rootA = r.uf.Find(r.ix.CenterID(a))
	}
	for _, z := range r.ix.Reach(a) {
		rep := r.mcClass[z]
		if rep == mcDead || rep >= 0 && rootA >= 0 && r.uf.Find(int(rep)) == rootA {
			continue
		}
		dst = append(dst, z)
	}
	return dst
}

// mergeWndqCore merges one wndq-core point of a micro-cluster whose live
// reachable micro-clusters are reach, at centre distances centerDist.
//
// The pair tests below are one bounded distance each, behind skips that
// decide per candidate whether it is needed, so they call
// geom.BoundedDistSq rather than a loop kernel.
func (r *run) mergeWndqCore(w *worker, pid int32, reach []int32, centerDist []float64) {
	eps2 := r.eps * r.eps
	prune2 := 4 * r.eps * r.eps
	p := r.ix.Point(int(pid))
	centerDistOf := r.ix.CenterDist
	toCenter := centerDistOf[pid]
	rootP := r.uf.Find(int(pid))
	for j, z := range reach {
		if centerDist[j]-toCenter >= r.far2 {
			continue
		}
		// A one-component micro-cluster already in p's component has nothing
		// to add, wherever it lies: decided before its centre is touched.
		rep := r.mcClass[z]
		if rep >= 0 && r.uf.Find(int(rep)) == rootP {
			continue
		}
		w.centerCalcs++
		pz2 := geom.BoundedDistSq(p, r.ix.Center(int(z)), prune2)
		if pz2 >= prune2 {
			continue
		}
		// Every member q lies within Radius(Z) of the centre, and fl(pz − ·)
		// is monotone, so pz − Radius(Z) ≥ ε(1+δ) is the member skip below
		// firing for every member of Z: decided once, before the region test.
		pz := math.Sqrt(pz2)
		if pz-r.ix.Radius(int(z)) >= r.far1 || !r.ix.AuxOverlapsRegion(int(z), p, r.eps) {
			continue
		}
		for _, q := range r.ix.Members(int(z)) {
			if q == pid || math.Abs(pz-centerDistOf[q]) >= r.far1 || r.flags.get(int(q))&flagCore == 0 {
				continue
			}
			if rep < 0 && r.uf.Find(int(q)) == rootP {
				continue
			}
			w.distCalcs++
			if geom.BoundedDistSq(p, r.ix.Point(int(q)), eps2) >= eps2 {
				continue
			}
			r.uf.Union(int(pid), int(q))
			rootP = r.uf.Find(int(pid))
			if rep >= 0 {
				// The union just absorbed the whole micro-cluster.
				break
			}
		}
	}
}

// swap hands hook the owned rows' core flags, exact after step 3, and
// promotes every halo copy hook reports core on its owner to a wndq-core
// (markWndq): step 4 then links it with every core within ε — the links step
// 3 could not make while its flag was down — and in a whole micro-cluster it
// joins the centre's component at once.
func (r *run) swap(hook func(core []bool)) {
	isCore := make([]bool, r.ix.Points.Len())
	for i := range r.localCount {
		isCore[i] = r.flags.get(i)&flagCore != 0
	}
	hook(isCore)
	r.each(len(isCore)-r.localCount, func(w *worker, k int) {
		if i := r.localCount + k; isCore[i] {
			r.markWndq(w, int32(i), false)
		}
	})
}

// assignBorders implements Algorithm 8 with dbscan.Brute's border rule: once
// every core flag is final, each non-core point joins the cluster of the core
// in its stored neighborhood of smallest global id (ids[q], or q where ids is
// nil), or stays noise. No non-core point was ever unioned, so each is a
// singleton until here and joins exactly one cluster. The lists are spent.
func (r *run) assignBorders(ids []int64) {
	for w := range r.workers {
		owner := &r.workers[w]
		r.each(len(owner.nonCore), func(_ *worker, k int) {
			best, bestID := -1, int64(math.MaxInt64)
			for _, q := range owner.stored(k) {
				id := int64(q)
				if ids != nil {
					id = ids[q]
				}
				if id < bestID && r.flags.get(int(q))&flagCore != 0 {
					best, bestID = int(q), id
				}
			}
			if best >= 0 {
				r.uf.Union(best, int(owner.nonCore[k].id))
			}
		})
		owner.nonCore, owner.nonCoreIDs = nil, nil
	}
}

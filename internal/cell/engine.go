package cell

import (
	"math"
	"runtime"
	"slices"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/par"
	"mudbscan/internal/unionfind"

	"mudbscan/internal/geom"
)

// Options tunes a cell-engine run. The zero value uses GOMAXPROCS workers.
type Options struct {
	// Workers is the goroutine count for the parallel phases (≤0 =
	// GOMAXPROCS). The clustering is byte-identical at any worker count.
	Workers int
}

// StepTimes is the wall-clock split over the engine's five phases.
type StepTimes struct {
	Build     time.Duration // cell assignment, sort, point reorder, cell table
	Adjacency time.Duration // neighbor-cell list precomputation
	Mark      time.Duration // core marking (dense shortcut + sparse scans)
	Connect   time.Duration // cell-graph union-find
	Assign    time.Duration // border assignment
}

// Total returns the sum of all step durations.
func (s StepTimes) Total() time.Duration {
	return s.Build + s.Adjacency + s.Mark + s.Connect + s.Assign
}

// Stats reports the work a cell-engine run performed.
type Stats struct {
	// Cells is the number of non-empty grid cells.
	Cells int
	// DenseCells counts cells holding ≥ minPts points, whose members are
	// all core with zero distance computations.
	DenseCells int
	// Queries is the number of per-point neighborhood scans run while
	// marking cores; QueriesSaved counts the points proven core by the
	// same-cell shortcut instead.
	Queries      int
	QueriesSaved int
	// DistCalcs counts candidate rows scanned by the distance kernels
	// across all phases. Mark's scans stop at the adjacent cell that
	// brings a point to minPts hits; Connect's stop at the first linking
	// pair and skip already-merged cells, so this count may vary slightly
	// between runs at workers > 1; the clustering never does.
	DistCalcs int64
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

// ctrStride spaces the per-worker counters a cache line apart so the hot
// phases don't false-share.
const ctrStride = 8

// Run clusters pts with the grid cell engine and returns the exact DBSCAN
// result — byte-identical to dbscan.Brute for every input that satisfies
// Representable, which the caller must have checked — plus run statistics.
// It is RunSet over a copy of pts.
func Run(pts []geom.Point, eps float64, minPts int, opts Options) (*clustering.Result, *Stats) {
	if len(pts) == 0 {
		return &clustering.Result{}, &Stats{}
	}
	return RunSet(geom.PointSetFromPoints(len(pts[0]), pts), eps, minPts, opts)
}

// RunSet is Run over a set (Representable must hold). The set is only
// read: the grid keeps its own copy of the rows, reordered by cell.
func RunSet(set *geom.PointSet, eps float64, minPts int, opts Options) (*clustering.Result, *Stats) {
	st := &Stats{}
	n := set.Len()
	if n == 0 {
		return &clustering.Result{}, st
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st.Workers = workers

	t0 := time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ix := build(set, eps)
	st.Steps.Build = time.Since(t0)
	st.Cells = ix.numCells()

	t0 = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	ix.buildAdjacency(workers)
	st.Steps.Adjacency = time.Since(t0)

	// Per-worker scratch: the ε-neighborhood position buffer.
	nbhds := make([][]int, workers)

	cells := ix.numCells()
	corePos := make([]bool, n)        // core flag, by position
	coreCount := make([]int32, cells) // cores per cell
	dist := make([]int64, workers*ctrStride)
	queries := make([]int64, workers*ctrStride)
	saved := make([]int64, workers*ctrStride)
	dense := make([]int64, workers*ctrStride)

	// Mark: dense cells are all core for free; sparse cells run one
	// neighbor scan per point, which stops once it holds minPts hits — the
	// core test reads no further.
	t0 = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	par.For(workers, cells, func(w, c int) {
		lo, hi := int(ix.start[c]), int(ix.start[c+1])
		if hi-lo >= minPts {
			for p := lo; p < hi; p++ {
				corePos[p] = true
			}
			coreCount[c] = int32(hi - lo)
			saved[w*ctrStride] += int64(hi - lo)
			dense[w*ctrStride]++
			return
		}
		nb := nbhds[w]
		cnt := int32(0)
		for p := lo; p < hi; p++ {
			var scanned int
			nb, scanned = ix.neighborsInto(nb[:0], p, minPts)
			dist[w*ctrStride] += int64(scanned)
			queries[w*ctrStride]++
			if len(nb) >= minPts {
				corePos[p] = true
				cnt++
			}
		}
		nbhds[w] = nb
		coreCount[c] = cnt
	})
	st.Steps.Mark = time.Since(t0)
	for w := 0; w < workers; w++ {
		st.Queries += int(queries[w*ctrStride])
		st.QueriesSaved += int(saved[w*ctrStride])
		st.DenseCells += int(dense[w*ctrStride])
	}

	// Connect: union cells linked by a core–core pair strictly within ε.
	// Same-cell cores share a union-find element by construction. Scanning
	// only b > a — the part of a's ascending list after a itself — covers
	// every pair once (adjacency is symmetric); the Same pre-check skips
	// pair scans between already-merged cells. Touching pairs — cells at
	// most one apart on every axis — go first: they link most often, and
	// once they have, Same skips most far pairs. The components do not
	// depend on the order pairs are visited in.
	t0 = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	uf := unionfind.NewConcurrent(cells)
	kern := geom.KernelFor(ix.dim)
	skip := func(a, b int, near bool) bool {
		if near {
			return !ix.touching(a, b) || uf.Same(a, b)
		}
		return uf.Same(a, b) || ix.touching(a, b) // visited in the first pass
	}
	for _, near := range []bool{true, false} {
		par.For(workers, cells, func(w, a int) {
			if coreCount[a] == 0 {
				return
			}
			loA, hiA := int(ix.start[a]), int(ix.start[a+1])
			list := ix.adj[ix.adjOff[a]:ix.adjOff[a+1]]
			self, _ := slices.BinarySearch(list, int32(a))
			for _, nb := range list[self+1:] {
				b := int(nb)
				if coreCount[b] == 0 || skip(a, b, near) {
					continue
				}
				loB, hiB := int(ix.start[b]), int(ix.start[b+1])
			pairScan:
				for x := loA; x < hiA; x++ {
					if !corePos[x] {
						continue
					}
					rowX := ix.set.Row(x)
					for y := loB; y < hiB; y++ {
						if !corePos[y] {
							continue
						}
						dist[w*ctrStride]++
						if kern(rowX, ix.set.Row(y)) < ix.eps2 {
							uf.Union(a, b)
							break pairScan
						}
					}
				}
			}
		})
	}
	st.Steps.Connect = time.Since(t0)

	// Assign: every non-core point joins the component of its
	// minimum-original-id core neighbor — the brute-force driver's tie rule
	// — or stays noise. Cells that are entirely core have nothing to do.
	t0 = time.Now() //mulint:allow determinism/time stats timing; never reaches clustering output
	target := make([]int32, n)
	for i := range target {
		target[i] = -1
	}
	par.For(workers, cells, func(w, c int) {
		lo, hi := int(ix.start[c]), int(ix.start[c+1])
		if int(coreCount[c]) == hi-lo {
			return
		}
		nb := nbhds[w]
		for p := lo; p < hi; p++ {
			if corePos[p] {
				continue
			}
			var scanned int
			nb, scanned = ix.neighborsInto(nb[:0], p, math.MaxInt)
			dist[w*ctrStride] += int64(scanned)
			best := int32(-1)
			var bestCell int32
			for _, q := range nb {
				if corePos[q] && (best < 0 || ix.ids[q] < best) {
					best = ix.ids[q]
					bestCell = ix.cellOf[q]
				}
			}
			if best >= 0 {
				target[p] = bestCell
			}
		}
		nbhds[w] = nb
	})
	st.Steps.Assign = time.Since(t0)
	for w := 0; w < workers; w++ {
		st.DistCalcs += dist[w*ctrStride]
	}

	// Fold positions back to original ids. Clustered points carry their
	// cell's component offset past n so noise singletons (component = own
	// id) can never collide with it.
	comp := make([]int, n)
	coreOrig := make([]bool, n)
	for p := 0; p < n; p++ {
		orig := int(ix.ids[p])
		coreOrig[orig] = corePos[p]
		switch {
		case corePos[p]:
			comp[orig] = n + uf.Find(int(ix.cellOf[p]))
		case target[p] >= 0:
			comp[orig] = n + uf.Find(int(target[p]))
		default:
			comp[orig] = orig
		}
	}
	return clustering.FromUnionLabels(comp, coreOrig), st
}

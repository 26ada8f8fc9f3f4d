// Package mc implements the micro-cluster machinery at the heart of μDBSCAN
// (§IV-A/B of the paper): micro-cluster construction with the 2ε deferral
// rule, the two-level μR-tree, reachable micro-cluster lists, and the
// reduced-search-space ε-neighborhood query. What a micro-cluster proves
// about its members' coreness is μDBSCAN's business (internal/core), read
// from Members and CenterDist.
//
// A micro-cluster (MC) is a hyper-sphere of radius ε centered at one of the
// data points; every data point belongs to exactly one MC, and membership
// requires dist(point, center) < ε — the same strict inequality as the
// DBSCAN ε-neighborhood, so that MC(p) ⊆ N_ε(center).
//
// Point coordinates live in one contiguous geom.PointSet, which the Index
// adopts from the caller (BuildSet) or Build copies the points into. Points
// are identified by their row index in the caller's order, their id; once
// the micro-clusters are known, finalize moves the rows in place into leaf
// order, so that each auxiliary tree's leaves are one range of the block and
// the block is the only copy of the coordinates. Point(id) reads a point by
// id, and Restore puts the caller's order back. Every loop over
// candidates sums its distances inside one of geom's loop kernels: the leaf
// scans of the auxiliary trees (block), the centre grid's chains (linked),
// and the reachable lists' centres and one micro-cluster's members (gathered,
// see CenterDistSq). There is one query tier, allocation-free into a
// caller-owned buffer, and one search-space rule, "centre strictly within
// 2ε": EpsNeighborhoodInto applies it to a member point's reachable list (the
// clustering loops), and NeighborhoodInto to the centre directory for an
// arbitrary point (the daemon).
//
// The first μR-tree level is one structure (directory.go): a hashed grid over
// the centres, keyed on at most their first four coordinates, at every
// dimensionality. While Algorithm 3 scans the points it answers "nearest
// centre < ε" and "any centre < 2ε"; once the centres are frozen the Index
// keeps it and it answers the closed 3ε balls of the reachable lists and
// NeighborhoodInto's strict 2ε ball. The grid decides membership with the
// kernel and the tie rule a brute-force scan of all centres uses, so the
// micro-cluster set and every centre ball are the ones that scan would give.
//
// The scan itself records only PointMC. Everything else an Index holds is
// made after the deferred pass, once, at its final size: the member lists
// are one arena (a stable counting sort of the assignment order by
// micro-cluster), the m auxiliary trees are one rtree.Packed forest over the
// block whose ranges are known before any tree is built, the micro-clusters
// are one slab of offset records, and the reachable lists are an arena too.
// A built Index is a few dozen heap objects however many micro-clusters it
// has.
package mc

import (
	"math"
	"slices"

	"mudbscan/internal/geom"
	"mudbscan/internal/par"
	"mudbscan/internal/rtree"
)

// microCluster is one micro-cluster's record. Its lists live in the Index's
// arenas: each field below is where one starts, the same field of the next
// record is where it ends, and a last record past the m real ones closes the
// lists of micro-cluster m−1.
type microCluster struct {
	center  int32 // id of the centre point, which is also members[0]
	members int32 // start in Index.members, and of its tree's rows in Points
	reach   int32 // start in Index.reach
	root    int32 // root of its auxiliary tree in Index.aux
}

// Options tunes micro-cluster construction; the zero value means defaults.
type Options struct {
	// NoDeferral disables the 2ε unassigned-list optimization (ablation):
	// every point that cannot join an existing MC immediately becomes a new
	// MC center, which increases the MC count m.
	NoDeferral bool
	// SkipReachable leaves the reachable lists empty; callers that want to
	// time that phase separately (μDBSCAN's step 2) invoke ComputeReachable
	// themselves.
	SkipReachable bool
	// Workers parallelizes the per-MC finalize work (auxiliary bulk loads,
	// centre distances) and ComputeReachable across that many goroutines.
	// Zero or one means sequential. The index produced is identical at every
	// worker count: each micro-cluster is finalized by exactly one worker
	// against the already-frozen membership, the centre grid is only read,
	// and each reachable list is sorted by MC id.
	Workers int
}

// Index is the two-level μR-tree plus the micro-cluster list: the first
// level indexes MC centers (the grid of the package comment), the second is a
// forest with one auxiliary R-tree per MC over its member points.
// Micro-clusters are numbered 0 … NumMCs()−1 in creation order.
type Index struct {
	Eps    float64
	MinPts int
	Dim    int
	// PointMC maps a dataset index to the id of its micro-cluster.
	PointMC []int32
	// Points holds the dataset the index was built over, contiguous and in
	// leaf order: micro-cluster k's members are one range of rows, the rows
	// of its auxiliary tree's leaves, leaf by leaf. Under BuildSet it is the
	// caller's own block, reordered in place until Restore. Point(id) reads
	// point id. Treat it as read-only.
	Points *geom.PointSet
	// CenterDist[i] is the distance (not squared) from point i to the centre
	// of its own micro-cluster, 0 for a centre: the root of one gathered
	// kernel call per micro-cluster in finalize. μDBSCAN takes each
	// micro-cluster's MinPts-radius from it, and step 4 bounds a distance to
	// a member by the triangle inequality on its centre without touching the
	// member. One flat slice per Index.
	CenterDist []float64

	radius  []float64      // per MC: the largest CenterDist among its members, 0 for a singleton
	mcs     []microCluster // NumMCs()+1 records
	members []int32        // per MC: the centre, then its members in the order the scan assigned them
	reach   []int32        // per MC: the MCs with centres within 3ε, ascending
	aux     *rtree.Packed  // the auxiliary trees over Points, MC k's rooted at mcs[k].root
	pos     []int32        // pos[id] is point id's row of Points
	dir     centerDirectory
	centers *geom.PointSet // the directory's centre rows: row k is MC k's centre
	opts    Options

	deferred int // points Algorithm 3's scan deferred
}

// NumMCs returns m, the number of micro-clusters.
func (ix *Index) NumMCs() int { return len(ix.mcs) - 1 }

// Deferred returns the number of points Algorithm 3's scan deferred (no
// centre strictly within ε, one within 2ε) to its pass after the scan.
func (ix *Index) Deferred() int { return ix.deferred }

// CenterID returns the id of micro-cluster k's centre point.
func (ix *Index) CenterID(k int) int { return int(ix.mcs[k].center) }

// Center returns micro-cluster k's centre, a view into the centre
// directory's rows.
func (ix *Index) Center(k int) geom.Point { return ix.centers.Point(k) }

// Point returns point id, a view into Points.
func (ix *Index) Point(id int) geom.Point { return ix.Points.Point(int(ix.pos[id])) }

// Restore moves the rows of Points back into id order — under BuildSet, the
// caller's block as it was handed over, bit for bit — and spends the Index:
// nothing may read it afterwards. A second call does nothing.
func (ix *Index) Restore() {
	if ix.pos != nil {
		geom.PermuteRows(ix.Points.Data(), ix.Dim, ix.pos)
		ix.pos = nil
	}
}

// CenterDistSq appends to dst the squared distance from p to the centre of
// every micro-cluster ids names, in list order: one gathered-rows kernel call
// (geom.AppendDistSqGathered) over the centre directory's rows. The sums are
// bounded at limit: exact where at most limit, above it otherwise (pass +Inf
// for exact sums throughout).
//
//mulint:noalloc one gathered kernel call; runs under TestProcessPointZeroAllocs and TestEpsNeighborhoodDistIntoZeroAllocs
func (ix *Index) CenterDistSq(dst []float64, p geom.Point, ids []int32, limit float64) []float64 {
	return geom.AppendDistSqGathered(dst, ids, ix.centers.Data(), ix.Dim, p, limit)
}

// Radius returns the radius of micro-cluster k: the largest CenterDist among
// its members, 0 for a singleton. Every member lies within it of the centre,
// so a point whose distance to the centre exceeds it by some bound is farther
// than that bound from every member.
func (ix *Index) Radius(k int) float64 { return ix.radius[k] }

// Members returns the ids of micro-cluster k's points; Members(k)[0] is
// always the centre. The slice is a view into the Index: read-only.
func (ix *Index) Members(k int) []int32 {
	return ix.members[ix.mcs[k].members:ix.mcs[k+1].members]
}

// Reach returns the ids of the micro-clusters reachable from k: centres
// within 3ε (closed, Lemma 3). It always contains k itself. Read-only, and
// empty until ComputeReachable has run.
func (ix *Index) Reach(k int) []int32 {
	return ix.reach[ix.mcs[k].reach:ix.mcs[k+1].reach]
}

// AuxOverlapsRegion reports whether the bounding box of micro-cluster k's
// members overlaps the cube of half-width r centred at p — the root test of
// its auxiliary tree, which is what §IV-B2 filters the reachable list by.
func (ix *Index) AuxOverlapsRegion(k int, p geom.Point, r float64) bool {
	return ix.aux.OverlapsRegion(ix.mcs[k].root, p, r)
}

// AuxSphereDistInto appends to dst the members of micro-cluster k strictly
// within r of p, in its auxiliary tree's order, and their squared distances to
// *dist in step; it returns the extended slice and the number of
// point-distance computations. It is one micro-cluster's share of
// EpsNeighborhoodDistInto at a radius of the caller's choosing: μDBSCAN's
// step 3 asks a micro-cluster it has settled for its ε/2 ball only.
//
//mulint:noalloc one auxiliary-tree walk under SphereDistIntoAt's contract; runs under TestProcessPointZeroAllocs
func (ix *Index) AuxSphereDistInto(k int, p geom.Point, r float64, dst []int, dist *[]float64) ([]int, int) {
	return ix.aux.SphereDistIntoAt(ix.mcs[k].root, p, r, true, dst, dist)
}

// Build scans pts and constructs micro-clusters per Algorithm 3: a point
// joins the nearest existing MC whose center is strictly within ε; otherwise,
// if some center lies within 2ε, the point is deferred to an unassigned list
// (to limit the number of MCs); otherwise it seeds a new MC. Deferred points
// are then inserted (joining an MC within ε or seeding one). Finally the
// auxiliary R-trees, centre distances and reachable lists are computed.
// It is BuildSet over a copy of pts.
func Build(pts []geom.Point, eps float64, minPts int, opts Options) *Index {
	if len(pts) == 0 {
		panic("mc: empty dataset")
	}
	return BuildSet(geom.PointSetFromPoints(len(pts[0]), pts), eps, minPts, opts)
}

// BuildSet is Build over a set the Index adopts as its Points: the
// coordinates are never copied, and their rows are reordered in place into
// leaf order. They are bit-identical again once Restore returns; until
// then nobody else may read or write them.
func BuildSet(set *geom.PointSet, eps float64, minPts int, opts Options) *Index {
	if eps <= 0 {
		panic("mc: eps must be positive")
	}
	if minPts < 1 {
		panic("mc: minPts must be at least 1")
	}
	if set.Len() == 0 {
		panic("mc: empty dataset")
	}
	return build(set, eps, minPts, opts, newDirectory(set.Dim(), eps))
}

// build is BuildSet through the given centre directory; the differential
// tests build through a brute-force one. Algorithm 3's scan probes the
// directory, which the Index keeps: its answers are exact, and its nearest
// tie rule does not depend on the order it meets candidates in.
func build(set *geom.PointSet, eps float64, minPts int, opts Options, dir centerDirectory) *Index {
	n := set.Len()
	ix := &Index{
		Eps:     eps,
		MinPts:  minPts,
		Dim:     set.Dim(),
		PointMC: make([]int32, n),
		Points:  geom.AdoptPointSet(set.Dim(), set.Data()),
		opts:    opts,
		dir:     dir,
		centers: dir.centerRows(),
	}
	var centers, unassigned []int32 // the centre point of each MC; the deferred points, ascending
	newMC := func(centerID int) {
		// The directory copies the coordinates.
		dir.insert(len(centers), ix.Points.Point(centerID))
		ix.PointMC[centerID] = int32(len(centers))
		centers = append(centers, int32(centerID))
	}
	for i := 0; i < n; i++ {
		p := ix.Points.Point(i)
		// The tight ε-radius nearest-center search succeeds for most points
		// on dense data; only the misses pay for the wider 2ε existence
		// probe that drives the deferral rule.
		if mcID, ok := dir.nearest(p, eps); ok {
			ix.PointMC[i] = int32(mcID)
			continue
		}
		if !opts.NoDeferral && dir.any(p, 2*eps) {
			unassigned = append(unassigned, int32(i))
			continue
		}
		newMC(i)
	}
	// The deferred pass runs once every point has been scanned.
	ix.deferred = len(unassigned)
	for _, i := range unassigned {
		if mcID, ok := dir.nearest(ix.Points.Point(int(i)), eps); ok {
			ix.PointMC[i] = int32(mcID)
		} else {
			newMC(int(i))
		}
	}
	ix.finalize(centers, unassigned)
	return ix
}

// finalize turns the scan's outcome — PointMC, the centres in creation order
// and the deferred points — into the Index: member lists, centre distances
// and radii, the block in leaf order under the aux trees, and reachable
// lists.
func (ix *Index) finalize(centers, deferred []int32) {
	n, m := ix.Points.Len(), len(centers)
	ix.mcs = make([]microCluster, m+1)
	for k, c := range centers {
		ix.mcs[k].center = c
	}

	// Member lists: a stable counting sort of the assignment order by
	// micro-cluster. The scan assigned its points in id order and the
	// deferred ones (ascending too) after all of them, and a centre is the
	// first point assigned to its micro-cluster, so every list comes out
	// centre first and then in the order the points joined.
	for _, k := range ix.PointMC {
		ix.mcs[k+1].members++
	}
	next := make([]int32, m)
	for k := range next {
		next[k] = ix.mcs[k].members
		ix.mcs[k+1].members += ix.mcs[k].members
	}
	ix.members = make([]int32, n)
	place := func(i int32) {
		k := ix.PointMC[i]
		ix.members[next[k]] = i
		next[k]++
	}
	d := 0
	for i := int32(0); int(i) < n; i++ {
		if d < len(deferred) && deferred[d] == i {
			d++
			continue
		}
		place(i)
	}
	for _, i := range deferred {
		place(i)
	}

	// The block moves into member order, so micro-cluster k's members are
	// the rows its tree is packed over, and each tree then reorders its own
	// range into leaf order. The shape of an STR tree is a function of its
	// size, so every tree's place in the forest is known before any is
	// built: workers pack disjoint ranges, and the bytes do not depend on
	// who packed what.
	geom.PermuteRows(ix.Points.Data(), ix.Dim, ix.members)
	ids := make([]int, n)
	for r, id := range ix.members {
		ids[r] = int(id)
	}
	largest := 0
	for k := 0; k < m; k++ {
		size := len(ix.Members(k))
		largest = max(largest, size)
		ix.mcs[k+1].root = ix.mcs[k].root + int32(rtree.NodeCount(size, rtree.DefaultMaxEntries))
	}
	ix.aux = rtree.NewForest(ix.Dim, rtree.DefaultMaxEntries, int(ix.mcs[m].root), ix.Points.Data(), ids)
	workers := max(ix.opts.Workers, 1)
	packers := make([]*rtree.Packer, workers)
	for w := range packers {
		packers[w] = ix.aux.Packer()
	}

	// Each micro-cluster's tree, its members' CenterDist and its radius are
	// written by the one worker that takes it, so the bytes do not depend on
	// the split.
	// The centre distances are taken before the pack, while the range is
	// still in member order, by the gathered kernel over the identity list
	// step: each sum is the kernel's for that member, wherever its row is.
	step := make([]int32, largest)
	for j := range step {
		step[j] = int32(j)
	}
	ix.CenterDist = make([]float64, n)
	ix.radius = make([]float64, m)
	toCenter := make([][]float64, workers) // per worker: the d² of one MC's members
	par.For(workers, m, func(w, k int) {
		z := &ix.mcs[k]
		members := ix.Members(k)
		rows := ix.Points.Block(int(z.members), int(z.members)+len(members))
		toCenter[w] = geom.AppendDistSqGathered(toCenter[w][:0], step[1:len(members)], rows, ix.Dim, ix.Center(k), math.Inf(1))
		radius := 0.0
		for j, id := range members[1:] {
			ix.CenterDist[id] = math.Sqrt(toCenter[w][j])
			radius = max(radius, ix.CenterDist[id])
		}
		ix.radius[k] = radius
		packers[w].Pack(z.root, z.members, len(members))
	})
	ix.pos = make([]int32, n)
	for r, id := range ids {
		ix.pos[id] = int32(r)
	}
	if !ix.opts.SkipReachable {
		ix.ComputeReachable()
	}
}

// carveBlocks is the most blocks carve cuts the micro-clusters into: enough
// for the workers to balance whatever their number, and a constant, so that
// what carve allocates does not grow with m.
const carveBlocks = 64

// carve builds one reachable list per micro-cluster — fill appends
// micro-cluster k's to the slice it is given — across Options.Workers
// goroutines, and returns the lists as one arena in micro-cluster order,
// having set the reach start of every record to where its list starts (and of
// the closing record to the arena's length). Micro-clusters are mutually
// independent: membership is frozen, every write targets the one being
// filled, and the lists are laid out by micro-cluster number, so the arena is
// the same at every worker count.
//
// The arena's size is not known until the last list is, and a buffer that
// grows to it is reallocated (and its pages faulted in) five times over. So a
// worker fills the lists of one block of consecutive micro-clusters into a
// scratch buffer it reuses, keeps an exact copy, and the copies are laid into
// an arena allocated once.
func (ix *Index) carve(fill func(w, k int, dst []int32) []int32) []int32 {
	m := ix.NumMCs()
	workers := max(ix.opts.Workers, 1)
	block := (m + carveBlocks - 1) / carveBlocks
	runs := make([][]int32, (m+block-1)/block) // per block, its lists back to back
	scratch := make([][]int32, workers)
	par.For(workers, len(runs), func(w, b int) {
		run := scratch[w][:0]
		for k := b * block; k < min((b+1)*block, m); k++ {
			ix.mcs[k].reach = int32(len(run))
			run = fill(w, k, run)
		}
		scratch[w] = run
		runs[b] = slices.Clone(run)
	})
	total := 0
	for b, run := range runs {
		for k := b * block; k < min((b+1)*block, m); k++ {
			ix.mcs[k].reach += int32(total)
		}
		total += len(run)
	}
	ix.mcs[m].reach = int32(total)
	arena := make([]int32, total)
	par.For(workers, len(runs), func(_, b int) {
		copy(arena[ix.mcs[b*block].reach:], runs[b])
	})
	return arena
}

// ComputeReachable fills every micro-cluster's reachable list: the MCs whose
// centers lie within 3ε (closed), one ball query per MC to the first μR-tree
// level (Algorithm 5). Idempotent. The grid is frozen and its queries are
// read-only, so the per-MC queries run across Options.Workers goroutines, each
// through its own hit buffer; each list is produced by one worker and sorted
// by MC id, identical at every worker count.
func (ix *Index) ComputeReachable() {
	reach := 3 * ix.Eps
	hits := make([][]int, max(ix.opts.Workers, 1))
	ix.reach = ix.carve(func(w, k int, dst []int32) []int32 {
		hits[w] = ix.dir.within(ix.Center(k), reach, true, hits[w][:0])
		slices.Sort(hits[w])
		for _, id := range hits[w] {
			dst = append(dst, int32(id))
		}
		return dst
	})
}

// EpsNeighborhoodInto computes the exact ε-neighborhood of point pointID
// (coordinates p) by searching only the auxiliary R-trees of the reachable
// micro-clusters of the point's own MC whose root MBR overlaps the
// ε-extended region of the point (§IV-B2). Neighbor ids — including the
// query point itself (dist 0 < ε) — are appended to dst, micro-cluster by
// micro-cluster in reachable-list order. It returns the extended slice, the
// number of point-distance computations, and the number of auxiliary trees
// actually searched. With a warmed dst the query performs zero allocations.
//
// The trees are walked id-only (rtree.Packed.SphereIDsIntoAt): a tree node
// lying wholly inside the ball hands over its ids without their distances,
// so distCalcs counts the rows the walk scanned, not the rows it returned —
// it can be below the number of hits. The ids and their order are the ones
// EpsNeighborhoodDistInto returns, whose count is that of the plain walk.
//
//mulint:noalloc static twin of TestEpsNeighborhoodIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed ε-query
func (ix *Index) EpsNeighborhoodInto(p geom.Point, pointID int, dst []int) (_ []int, distCalcs, treesSearched int) {
	return ix.EpsNeighborhoodDistInto(p, pointID, dst, nil)
}

// EpsNeighborhoodDistInto is EpsNeighborhoodInto with a second output: when
// dist is non-nil, the squared distance from p to every neighbor is appended
// to *dist in step with dst. The leaf scans computed those to decide the
// hits, and Algorithm 6's inner-circle pass needs exactly them; with dist
// non-nil every row of every leaf reached is scanned and counted. With dist
// nil it is EpsNeighborhoodInto.
//
//mulint:noalloc static twin of TestEpsNeighborhoodDistIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed ε-query
func (ix *Index) EpsNeighborhoodDistInto(p geom.Point, pointID int, dst []int, dist *[]float64) (_ []int, distCalcs, treesSearched int) {
	// Every member of MC Z lies strictly within ε of Z's center, so a
	// member can only be within ε of p when dist(p, center) < 2ε — a much
	// tighter filter than the 3ε reachability list. The centre distances
	// are gathered a block of the list at a time into a buffer on the stack.
	prune2 := 4 * ix.Eps * ix.Eps
	var buf [64]float64
	for reach := ix.Reach(int(ix.PointMC[pointID])); len(reach) > 0; {
		block := reach[:min(len(reach), len(buf))]
		reach = reach[len(block):]
		for j, d2 := range ix.CenterDistSq(buf[:0], p, block, prune2) {
			z := &ix.mcs[block[j]]
			if d2 >= prune2 || !ix.aux.OverlapsRegion(z.root, p, ix.Eps) {
				continue
			}
			treesSearched++
			var calcs int
			if dist == nil {
				dst, calcs, _ = ix.aux.SphereIDsIntoAt(z.root, p, ix.Eps, true, dst)
			} else {
				dst, calcs = ix.aux.SphereDistIntoAt(z.root, p, ix.Eps, true, dst, dist)
			}
			distCalcs += calcs
		}
	}
	return dst, distCalcs, treesSearched
}

// NeighborhoodInto is the ε-neighborhood query for an arbitrary point p,
// which need not be in the dataset and so has no reachable list to start
// from. The same 2ε rule applies — only a micro-cluster centred strictly
// within 2ε of p can hold a neighbor — and here the first μR-tree level
// answers it: one strict 2ε ball query to the centre grid, then the region
// filter and the auxiliary tree of each hit. The centre hits are staged in
// dst behind the caller's prefix and the neighbor ids, appended after them,
// are moved down over the staging area at the end, so one warmed buffer
// serves the whole query with zero allocations. It returns the extended
// slice and the number of point distances computed in the auxiliary trees:
// the trees are walked id-only, as in EpsNeighborhoodInto, so a node wholly
// inside the ball costs none and distCalcs can be below the number of hits.
//
//mulint:noalloc static twin of TestNeighborhoodIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (ix *Index) NeighborhoodInto(p geom.Point, dst []int) (_ []int, distCalcs int) {
	base := len(dst)
	dst = ix.dir.within(p, 2*ix.Eps, false, dst)
	staged := len(dst)
	for i := base; i < staged; i++ {
		root := ix.mcs[dst[i]].root
		if !ix.aux.OverlapsRegion(root, p, ix.Eps) {
			continue
		}
		var calcs int
		dst, calcs, _ = ix.aux.SphereIDsIntoAt(root, p, ix.Eps, true, dst)
		distCalcs += calcs
	}
	n := copy(dst[base:], dst[staged:])
	return dst[:base+n], distCalcs
}

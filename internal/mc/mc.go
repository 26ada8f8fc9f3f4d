// Package mc implements the micro-cluster machinery at the heart of μDBSCAN
// (§IV-A/B of the paper): micro-cluster construction with the 2ε deferral
// rule, the two-level μR-tree, DMC/CMC/SMC classification, reachable
// micro-cluster lists, and the reduced-search-space ε-neighborhood query.
//
// A micro-cluster (MC) is a hyper-sphere of radius ε centered at one of the
// data points; every data point belongs to exactly one MC, and membership
// requires dist(point, center) < ε — the same strict inequality as the
// DBSCAN ε-neighborhood, so that MC(p) ⊆ N_ε(center).
//
// Point coordinates live in one contiguous geom.PointSet owned by the Index;
// member points are identified by their row index. All distance work goes
// through the dimension-specialized kernel chosen once at construction. There
// is one query tier, allocation-free into a caller-owned buffer, and one
// search-space rule, "centre strictly within 2ε": EpsNeighborhoodInto applies
// it to a member point's reachable list (the clustering loops), and
// NeighborhoodInto to the centre tree for an arbitrary point (the daemon).
//
// The first μR-tree level has two lives. While Algorithm 3 scans the points
// it is a scan-time directory (directory.go) answering "nearest centre < ε"
// and "any centre < 2ε": a hashed grid over the centres up to gridMaxDim
// dimensions, the dynamic R-tree above. Once the centres are frozen it is an
// R-tree — STR bulk-loaded from the grid's centres, or the tree the scan
// grew — read by ComputeReachable and NeighborhoodInto. Both directories
// decide membership with the same kernel and the same tie rule, so the
// micro-cluster set does not depend on which one served the scan.
package mc

import (
	"fmt"
	"math"

	"mudbscan/internal/geom"
	"mudbscan/internal/par"
	"mudbscan/internal/rtree"
)

// Kind classifies a micro-cluster (§IV-B1, Fig. 2).
type Kind uint8

const (
	// SMC is a sparse micro-cluster: fewer than MinPts members.
	SMC Kind = iota
	// CMC is a core micro-cluster: at least MinPts members, so its center is
	// a core point (Lemma 2).
	CMC
	// DMC is a dense micro-cluster: at least MinPts members in its
	// inner circle (radius ε/2), so every inner-circle point and the center
	// are core points (Lemma 1).
	DMC
)

func (k Kind) String() string {
	switch k {
	case SMC:
		return "SMC"
	case CMC:
		return "CMC"
	case DMC:
		return "DMC"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MicroCluster holds one micro-cluster. Members are indices into the dataset
// that the Index was built over; Members[0] is always the center point.
type MicroCluster struct {
	ID       int
	CenterID int
	Center   geom.Point
	Members  []int32
	// InnerIDs are the member ids strictly within ε/2 of the center,
	// excluding the center itself (the paper's Inner Circle).
	InnerIDs []int32
	Kind     Kind
	// Aux is the auxiliary R-tree over member points (second μR-tree level).
	Aux *rtree.Tree
	// Reach lists the ids of reachable micro-clusters: centers within 3ε
	// (closed, Lemma 3). It always contains the MC itself.
	Reach []int32
}

// Size returns the number of member points, including the center.
func (m *MicroCluster) Size() int { return len(m.Members) }

// Options tunes micro-cluster construction; the zero value means defaults.
type Options struct {
	// Fanout is the R-tree node capacity used for both μR-tree levels.
	Fanout int
	// NoDeferral disables the 2ε unassigned-list optimization (ablation):
	// every point that cannot join an existing MC immediately becomes a new
	// MC center, which increases the MC count m.
	NoDeferral bool
	// SkipReachable leaves the reachable lists empty; callers that want to
	// time that phase separately (μDBSCAN's step 2) invoke ComputeReachable
	// themselves.
	SkipReachable bool
	// Workers parallelizes the per-MC finalize work (auxiliary bulk loads,
	// inner-circle scans, kind classification) and ComputeReachable across
	// that many goroutines. Zero or one means sequential. The index produced
	// is identical at every worker count: each micro-cluster is finalized by
	// exactly one worker against the already-frozen membership, and the
	// center tree is only read.
	Workers int
}

// Index is the two-level μR-tree plus the micro-cluster list: the first
// level indexes MC centers (bulk-loaded or grown, see the package comment),
// and each MC carries an auxiliary R-tree over its member points.
type Index struct {
	Eps    float64
	MinPts int
	Dim    int
	MCs    []*MicroCluster
	// PointMC maps a dataset index to the id of its micro-cluster.
	PointMC []int32
	// Points holds the dataset the index was built over, contiguous and in
	// id order. Treat it as read-only.
	Points *geom.PointSet
	// CenterDist[i] is the distance (not squared) from point i to the centre
	// of its own micro-cluster, 0 for a centre: the kernel value finalize
	// computes for the inner-circle test anyway, kept so that step 4 can
	// bound a distance to a member by the triangle inequality on its centre
	// without touching the member. One flat slice per Index.
	CenterDist []float64
	centers    *rtree.Tree
	kern       geom.DistSqKernel
	// within is kern for the threshold tests: it may stop summing once a
	// candidate is out (geom.BoundedKernel).
	within geom.BoundedKernel
	opts   Options
}

// Build scans pts and constructs micro-clusters per Algorithm 3: a point
// joins the nearest existing MC whose center is strictly within ε; otherwise,
// if some center lies within 2ε, the point is deferred to an unassigned list
// (to limit the number of MCs); otherwise it seeds a new MC. Deferred points
// are then inserted (joining an MC within ε or seeding one). Finally the
// auxiliary R-trees, inner circles, kinds and reachable lists are computed.
func Build(pts []geom.Point, eps float64, minPts int, opts Options) *Index {
	if len(pts) == 0 {
		panic("mc: empty dataset")
	}
	b := NewBuilder(len(pts[0]), eps, minPts, opts)
	b.Add(pts)
	return b.Finish()
}

// Builder constructs an Index incrementally: points arrive in one or more
// Add batches and Finish runs the deferred-point pass plus finalization.
// Feeding the same points in the same order through any batch split yields
// an Index identical to a single Build call, because Algorithm 3's scan is
// one-point-at-a-time and the deferred pass runs only once, after all
// points are known. μDBSCAN-D uses this to overlap the halo exchange with
// μR-tree construction: the rank Adds its local points while the halo
// payloads are in flight, then Adds the halo points and Finishes.
//
// During the scan the centres live in dir, the scan-time directory chosen
// from (dim, ε) alone; Finish turns it into the Index's centre tree and
// drops it. The directory's answers are exact and its nearest tie rule is
// the tree's, so the split invariance above holds whichever one is in use.
type Builder struct {
	ix         *Index
	dir        centerDirectory
	unassigned []int32
	finished   bool
}

// NewBuilder prepares an empty Builder for dim-dimensional points.
func NewBuilder(dim int, eps float64, minPts int, opts Options) *Builder {
	if eps <= 0 {
		panic("mc: eps must be positive")
	}
	if minPts < 1 {
		panic("mc: minPts must be at least 1")
	}
	if opts.Fanout <= 0 {
		opts.Fanout = rtree.DefaultMaxEntries
	}
	return newBuilder(dim, eps, minPts, opts, newDirectory(dim, eps, opts.Fanout))
}

// newBuilder is NewBuilder with the scan-time directory given; the
// differential tests use it to force the tree directory at low d.
func newBuilder(dim int, eps float64, minPts int, opts Options, dir centerDirectory) *Builder {
	return &Builder{
		ix: &Index{
			Eps:    eps,
			MinPts: minPts,
			Dim:    dim,
			Points: geom.NewPointSet(dim, 0),
			kern:   geom.KernelFor(dim),
			within: geom.BoundedKernelFor(dim),
			opts:   opts,
		},
		dir: dir,
	}
}

// Add scans the batch per Algorithm 3. Point ids continue from previous
// batches. Coordinates are copied into the Index's contiguous point store.
func (b *Builder) Add(pts []geom.Point) {
	if b.finished {
		panic("mc: Add after Finish")
	}
	ix := b.ix
	for _, p := range pts {
		i := ix.Points.Append(p)
		ix.PointMC = append(ix.PointMC, -1)
		// The tight ε-radius nearest-center search succeeds for most points
		// on dense data; only the misses pay for the wider 2ε existence
		// probe that drives the deferral rule.
		if mcID, ok := b.dir.nearest(p, ix.Eps); ok {
			ix.addMember(mcID, i)
			continue
		}
		if !ix.opts.NoDeferral && b.dir.any(p, 2*ix.Eps) {
			b.unassigned = append(b.unassigned, int32(i))
			continue
		}
		b.newMC(i)
	}
}

// Points returns the contiguous store of all points added so far, in id
// order. The set is owned by the Builder (and by the Index after Finish);
// treat it as read-only.
func (b *Builder) Points() *geom.PointSet { return b.ix.Points }

// Finish inserts the deferred points and finalizes the Index (aux trees,
// inner circles, kinds, and — unless SkipReachable — reachable lists).
func (b *Builder) Finish() *Index {
	if b.finished {
		panic("mc: Finish called twice")
	}
	b.finished = true
	ix := b.ix
	if ix.Points.Len() == 0 {
		panic("mc: empty dataset")
	}
	for _, i := range b.unassigned {
		p := ix.Points.Point(int(i))
		if mcID, ok := b.dir.nearest(p, ix.Eps); ok {
			ix.addMember(mcID, int(i))
		} else {
			b.newMC(int(i))
		}
	}
	// The centres are frozen: the first μR-tree level is the tree the scan
	// grew, or one STR bulk load over the grid's centres. Either way the
	// directory is dropped here, so an Index that outlives its Builder (a
	// daemon's cached one) does not retain the grid.
	ix.centers = b.dir.tree()
	b.dir = nil
	ix.finalize()
	return ix
}

func (b *Builder) newMC(centerID int) {
	ix := b.ix
	m := &MicroCluster{
		ID:       len(ix.MCs),
		CenterID: centerID,
		Members:  []int32{int32(centerID)},
	}
	ix.MCs = append(ix.MCs, m)
	// The directory copies the coordinates; m.Center is materialized in
	// finalize, once the point store has stopped growing (row views into a
	// growing PointSet can be invalidated by reallocation).
	b.dir.insert(m.ID, ix.Points.Point(centerID))
	ix.PointMC[centerID] = int32(m.ID)
}

func (ix *Index) addMember(mcID, pointID int) {
	ix.MCs[mcID].Members = append(ix.MCs[mcID].Members, int32(pointID))
	ix.PointMC[pointID] = int32(mcID)
}

// finalize builds the aux trees, inner circles, kinds and reachable lists.
// Micro-clusters are mutually independent here — membership is frozen and
// every write targets the one MC being finalized — so the loop runs across
// Options.Workers goroutines, each gathering member coordinates into its own
// reusable scratch PointSet before bulk-loading the auxiliary tree.
func (ix *Index) finalize() {
	// The point store is frozen now; give every MC its stable center view.
	for _, m := range ix.MCs {
		m.Center = ix.Points.Point(m.CenterID)
	}
	ix.CenterDist = make([]float64, ix.Points.Len())
	half := ix.Eps / 2
	half2 := half * half
	workers := ix.opts.Workers
	if workers < 1 {
		workers = 1
	}
	scratchSet := make([]*geom.PointSet, workers)
	scratchIDs := make([][]int, workers)
	for w := range scratchSet {
		scratchSet[w] = geom.NewPointSet(ix.Dim, 0)
	}
	par.For(ix.opts.Workers, len(ix.MCs), func(w, k int) {
		m := ix.MCs[k]
		set := scratchSet[w]
		set.Reset()
		ids := scratchIDs[w][:0]
		for _, id := range m.Members {
			set.AppendRow(ix.Points.Row(int(id)))
			ids = append(ids, int(id))
		}
		scratchIDs[w] = ids
		m.Aux = rtree.BulkLoadSet(ix.opts.Fanout, set, ids)
		for _, id := range m.Members {
			if int(id) == m.CenterID {
				continue
			}
			d2 := ix.kern(ix.Points.Row(int(id)), m.Center)
			ix.CenterDist[id] = math.Sqrt(d2)
			if d2 < half2 {
				m.InnerIDs = append(m.InnerIDs, id)
			}
		}
		switch {
		case len(m.InnerIDs) >= ix.MinPts:
			m.Kind = DMC
		case len(m.Members) >= ix.MinPts:
			m.Kind = CMC
		default:
			m.Kind = SMC
		}
	})
	if !ix.opts.SkipReachable {
		ix.ComputeReachable()
	}
}

// ComputeReachable fills every micro-cluster's reachable list: the MCs whose
// centers lie within 3ε (closed), found through the first-level μR-tree
// (Algorithm 5). Idempotent. The center tree is immutable by now and sphere
// queries are read-only, so the per-MC queries run across Options.Workers
// goroutines, each through its own hit buffer; each list is produced by one
// worker in tree order, identical at every worker count.
func (ix *Index) ComputeReachable() {
	reach := 3 * ix.Eps
	hits := make([][]int, max(ix.opts.Workers, 1))
	par.For(ix.opts.Workers, len(ix.MCs), func(w, k int) {
		m := ix.MCs[k]
		hits[w], _ = ix.centers.SphereInto(m.Center, reach, false, hits[w][:0])
		m.Reach = m.Reach[:0]
		for _, id := range hits[w] {
			m.Reach = append(m.Reach, int32(id))
		}
	})
}

// NumMCs returns m, the number of micro-clusters.
func (ix *Index) NumMCs() int { return len(ix.MCs) }

// EpsNeighborhoodInto computes the exact ε-neighborhood of point pointID
// (coordinates p) by searching only the auxiliary R-trees of the reachable
// micro-clusters of the point's own MC whose root MBR overlaps the
// ε-extended region of the point (§IV-B2). Neighbor ids — including the
// query point itself (dist 0 < ε) — are appended to dst, micro-cluster by
// micro-cluster in reachable-list order. It returns the extended slice, the
// number of point-distance computations, and the number of auxiliary trees
// actually searched. With a warmed dst the query performs zero allocations;
// this is the primitive under every clustering hot loop.
//
//mulint:noalloc static twin of TestEpsNeighborhoodIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed ε-query
func (ix *Index) EpsNeighborhoodInto(p geom.Point, pointID int, dst []int) (_ []int, distCalcs, treesSearched int) {
	return ix.EpsNeighborhoodDistInto(p, pointID, dst, nil)
}

// EpsNeighborhoodDistInto is EpsNeighborhoodInto with a second output: when
// dist is non-nil, the squared distance from p to every neighbor is appended
// to *dist in step with dst. The leaf scans computed those to decide the
// hits, and Algorithm 6's inner-circle pass needs exactly them.
//
//mulint:noalloc static twin of TestEpsNeighborhoodDistIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed ε-query
func (ix *Index) EpsNeighborhoodDistInto(p geom.Point, pointID int, dst []int, dist *[]float64) (_ []int, distCalcs, treesSearched int) {
	// Every member of MC Z lies strictly within ε of Z's center, so a
	// member can only be within ε of p when dist(p, center) < 2ε — a much
	// tighter filter than the 3ε reachability list.
	prune2 := 4 * ix.Eps * ix.Eps
	for _, rid := range ix.MCs[ix.PointMC[pointID]].Reach {
		z := ix.MCs[rid]
		if ix.within(p, z.Center, prune2) >= prune2 {
			continue
		}
		if !z.Aux.RootMBR().OverlapsRegion(p, ix.Eps) {
			continue
		}
		treesSearched++
		var calcs int
		dst, calcs = z.Aux.SphereDistInto(p, ix.Eps, true, dst, dist)
		distCalcs += calcs
	}
	return dst, distCalcs, treesSearched
}

// NeighborhoodInto is the ε-neighborhood query for an arbitrary point p,
// which need not be in the dataset and so has no reachable list to start
// from. The same 2ε rule applies — only a micro-cluster centred strictly
// within 2ε of p can hold a neighbor — and here the first μR-tree level
// answers it: one strict 2ε sphere query over the centres, then the region
// filter and the auxiliary tree of each hit. The centre hits are staged in
// dst behind the caller's prefix and the neighbor ids, appended after them,
// are moved down over the staging area at the end, so one warmed buffer
// serves the whole query with zero allocations. It returns the extended
// slice and the number of point-distance computations, centres included.
//
//mulint:noalloc static twin of TestNeighborhoodIntoZeroAllocs (into_test.go), the AllocsPerRun gate pinning 0 allocs per warmed query
func (ix *Index) NeighborhoodInto(p geom.Point, dst []int) (_ []int, distCalcs int) {
	base := len(dst)
	dst, distCalcs = ix.centers.SphereInto(p, 2*ix.Eps, true, dst)
	staged := len(dst)
	for i := base; i < staged; i++ {
		z := ix.MCs[dst[i]]
		if !z.Aux.RootMBR().OverlapsRegion(p, ix.Eps) {
			continue
		}
		var calcs int
		dst, calcs = z.Aux.SphereInto(p, ix.Eps, true, dst)
		distCalcs += calcs
	}
	n := copy(dst[base:], dst[staged:])
	return dst[:base+n], distCalcs
}

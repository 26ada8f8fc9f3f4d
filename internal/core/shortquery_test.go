package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// processPointUnshortened is Algorithm 6's body with nothing taken away: one
// full ε-query, the inner-circle promotion, and a link to every hit — no
// settled micro-cluster, no rerun, no skipped run of a whole one. It is what
// processPoint must be equivalent to, and it queries and links in the same
// order, so at one worker components, flags and stored neighborhoods must
// come out equal element for element. It saves the query
// of a point a reachable micro-cluster's MinPts-radius proves core, as
// processPoint does (cut (g)), so that what the two differ by is cut (f).
func processPointUnshortened(r *run, w *worker, i int) {
	reach := r.ix.Reach(int(r.ix.PointMC[i]))
	if r.provenByRadius(r.ix.CenterDistSq(nil, r.ix.Point(i), reach, math.Inf(1)), reach) {
		r.markWndq(w, int32(i), false)
		return
	}
	w.dist = w.dist[:0]
	w.nbhd, _, _ = r.ix.EpsNeighborhoodDistInto(r.ix.Point(i), i, w.nbhd[:0], &w.dist)
	w.queries++
	if len(w.nbhd) < r.minPts {
		w.nonCore = append(w.nonCore, nonCoreEntry{id: int32(i), off: int32(len(w.nonCoreIDs))})
		for _, q := range w.nbhd {
			w.nonCoreIDs = append(w.nonCoreIDs, int32(q))
		}
		return
	}
	r.flags.raise(i, flagCore)
	half2 := (r.eps / 2) * (r.eps / 2)
	var inner []int
	for k, q := range w.nbhd {
		if w.dist[k] < half2 {
			inner = append(inner, q)
		}
	}
	if len(inner) >= r.minPts {
		for _, q := range inner {
			if q != i {
				r.markWndq(w, int32(q), false)
			}
		}
	}
	for _, q := range w.nbhd {
		if q != i && r.flags.get(q)&flagCore != 0 {
			r.uf.Union(i, q)
		}
	}
}

// step3Result is a run's LocalResult before the borders are assigned, with
// every non-core point's stored neighborhood.
type step3Result struct {
	*LocalResult
	stored map[int32][]int32
}

// runWithStep3 is runLocal over a built index with step 3's per-point
// body given: the driver's, or the reference. The halo rows, from localCount
// on, get the flags exact holds for them in the swap. The borders are left
// unassigned.
func runWithStep3(pts []geom.Point, eps float64, minPts, localCount, workers int, exact []bool, body func(*run, *worker, int)) step3Result {
	r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, localCount, Options{Workers: workers})
	r.preliminaryClusters()
	r.each(localCount, func(w *worker, i int) {
		if r.flags.get(i)&flagWndq == 0 {
			body(r, w, i)
		}
	})
	r.swap(swapFrom(exact, localCount))
	r.postProcessCore()
	stored := map[int32][]int32{}
	for w := range r.workers {
		for k, e := range r.workers[w].nonCore {
			stored[e.id] = r.workers[w].stored(k)
		}
	}
	return step3Result{r.result(&Stats{}), stored}
}

// roots widens a LocalResult's components for samePartition.
func roots(comp []int32) []int {
	out := make([]int, len(comp))
	for i, c := range comp {
		out[i] = int(c)
	}
	return out
}

// holdToUnshortened runs the driver at 1, 2 and 4 workers against the
// unshortened reference at one, the rows from localCount on playing halo
// copies whose exact flags (brute force's over pts) the swap brings in. At
// one worker everything must be equal as data: components, flags, queries and
// both promotion counts. At every worker count every non-core point's stored
// neighborhood must be the reference's, in order: a non-core point's query is
// always full, whichever micro-clusters it found settled. At more workers,
// which cores get promoted, before or after which core links to them,
// depends on who was queried first, so what must hold besides is what every
// schedule owes: the exact core flags, the reference's partition of the
// local cores, and one component for every local core and every halo core
// strictly within ε of it. It returns the one-worker result.
func holdToUnshortened(t *testing.T, pts []geom.Point, eps float64, minPts, localCount int) step3Result {
	t.Helper()
	exact, _ := dbscan.Brute(pts, eps, minPts)
	want := runWithStep3(pts, eps, minPts, localCount, 1, exact.Core, processPointUnshortened)
	var one step3Result
	for _, workers := range []int{1, 2, 4} {
		got := runWithStep3(pts, eps, minPts, localCount, workers, exact.Core, (*run).processPoint)
		if !reflect.DeepEqual(got.Core, exact.Core) {
			t.Fatalf("workers=%d: core flags differ from brute force's", workers)
		}
		if !reflect.DeepEqual(got.stored, want.stored) {
			t.Fatalf("workers=%d: stored neighborhoods\n%v\nunshortened\n%v", workers, got.stored, want.stored)
		}
		if workers == 1 {
			one = got
			if !reflect.DeepEqual(got.Comp, want.Comp) {
				t.Fatalf("components differ from the unshortened pass")
			}
			g, w := got.Stats, want.Stats
			if g.Queries != w.Queries || g.WndqFromMCs != w.WndqFromMCs || g.WndqDynamic != w.WndqDynamic {
				t.Fatalf("queries %d, promotions %d+%d; unshortened %d, %d+%d",
					g.Queries, g.WndqFromMCs, g.WndqDynamic, w.Queries, w.WndqFromMCs, w.WndqDynamic)
			}
			continue
		}
		if i, ok := samePartition(roots(got.Comp), roots(want.Comp), func(i int) bool { return i < localCount && want.Core[i] }); !ok {
			t.Fatalf("workers=%d: core %d in component %d, unshortened %d", workers, i, got.Comp[i], want.Comp[i])
		}
		eps2 := eps * eps
		for a := 0; a < localCount; a++ {
			for b := localCount; got.Core[a] && b < len(pts); b++ {
				if got.Core[b] && got.Comp[a] != got.Comp[b] && geom.DistSq(pts[a], pts[b]) < eps2 {
					t.Fatalf("workers=%d: local core %d and halo core %d within ε, in two components", workers, a, b)
				}
			}
		}
	}
	return one
}

// TestShortQueryMatchesUnshortened: the core-first query against the
// reference on every driver dataset and on reduced analogues of the two
// benchmark workloads whose micro-clusters are fat, as they are and with the
// last fifth of the points playing the halo.
func TestShortQueryMatchesUnshortened(t *testing.T) {
	cases := append(driverCases(),
		driverCase{"bio-like-14d", data.BioLike(3000, 14, 1), 600, 5},
		driverCase{"household-like-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6},
		driverCase{"halo-2d", haloSet(2, 4, 0.5), 0.5, 5})
	requeries := 0
	for _, c := range cases {
		for _, halo := range []int{0, len(c.pts) / 5} {
			t.Run(fmt.Sprintf("%s/halo=%d", c.name, halo), func(t *testing.T) {
				requeries += holdToUnshortened(t, c.pts, c.eps, c.minPts, len(c.pts)-halo).Stats.Requeries
			})
		}
	}
	if requeries == 0 {
		t.Fatal("no query was rerun on any dataset")
	}
}

// along returns a point at x along the first axis and y along the last of dim.
func along(dim int, x, y float64) geom.Point {
	p := make(geom.Point, dim)
	p[0], p[dim-1] = x, y
	return p
}

// repeat returns copies of p.
func repeat(p geom.Point, copies int) []geom.Point {
	out := make([]geom.Point, copies)
	for i := range out {
		out[i] = p.Clone()
	}
	return out
}

// TestShortQueryKeepsBridgeIntoAnotherComponent: two micro-clusters on a line,
// ε = 1 — Z, dense (centre 0, four members at ε/4), and A, core (centre 2.25,
// two members at 2) — whose only connection is the pair q = 0.875 of Z and
// p = 1.625 of A, 0.75 apart. Both are claimed as borders in step 1, so
// neither can claim the other, and neither is ever promoted, so step 4 never
// starts from them: the edge exists in p's query or not at all (q is queried
// first, when p carries no core flag yet). Neither is proven core without its
// query either: Z's MinPts closest members reach ε/4 from its centre and A's
// 5ε/8, so d + r_k is 1.125ε for q and 1.25ε for p (cut (g)). Z is whole, its
// centre lies in [ε, 2ε) of p and in another component, and q lies in the
// ε/2–ε annulus of p — a query that settled Z for being whole alone would walk
// it at ε/2, still find its MinPts (p's own ε/2 ball and A's centre are four),
// and split the cluster.
func TestShortQueryKeepsBridgeIntoAnotherComponent(t *testing.T) {
	const eps, minPts = 1.0, 4
	for _, dim := range []int{2, 5} {
		pts := []geom.Point{along(dim, 0, 0)}
		pts = append(pts, repeat(along(dim, 0.25, 0), 4)...)
		q := len(pts)
		pts = append(pts, along(dim, 0.875, 0))
		pts = append(pts, along(dim, 2.25, 0))
		pts = append(pts, repeat(along(dim, 2, 0), 2)...)
		p := len(pts)
		pts = append(pts, along(dim, 1.625, 0))

		r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, len(pts), Options{})
		r.preliminaryClusters()
		z, a := int(r.ix.PointMC[q]), int(r.ix.PointMC[p])
		pz2 := geom.DistSq(pts[p], r.ix.Center(z))
		if r.ix.NumMCs() != 2 || z == a || !r.mcWhole[z] || !r.mcWhole[a] || pz2 < eps*eps || pz2 >= 4*eps*eps ||
			r.uf.Find(r.ix.CenterID(a)) == r.uf.Find(r.ix.CenterID(z)) || r.flags.get(p) != 0 || r.flags.get(q) != 0 {
			t.Fatalf("d=%d: the set misses its point: %d MCs, p in %d (whole %v), q in %d (whole %v), d²(p, cZ) = %v",
				dim, r.ix.NumMCs(), a, r.mcWhole[a], z, r.mcWhole[z], pz2)
		}

		one := holdToUnshortened(t, pts, eps, minPts, len(pts))
		// q's own query is the one rerun: five of its seven neighbors sit in
		// the annulus of its own micro-cluster. p's is decided short.
		if one.Stats.Queries != 2 || one.Stats.Requeries != 1 {
			t.Fatalf("d=%d: %d queries, %d rerun; want 2, 1", dim, one.Stats.Queries, one.Stats.Requeries)
		}
		for _, workers := range []int{1, 2, 4} {
			res, _ := Run(pts, eps, minPts, Options{Workers: workers})
			if res.NumClusters != 1 || res.NumNoise() != 0 {
				t.Fatalf("d=%d workers=%d: %d clusters, %d noise; the bridge was lost", dim, workers, res.NumClusters, res.NumNoise())
			}
		}
	}
}

// TestShortQueryRacingCoresJoinTheCentre: two members q, q′ of a whole
// micro-cluster Z that step 1 leaves unproven (Z's MinPts-radius is 0.02 and
// both lie beyond 0.98 of its centre), each the other's only neighbor within
// ε/2. Z is settled for both, so each one's hits of Z are {q, q′} and then the
// centre, appended last from the annulus: three, MinPts, no rerun and no
// promotion. Two workers querying them at once may each raise its flag before
// either links; each then sees the other flagged first in Z's run. The test
// plays that interleaving on one worker — both flags up, then both queries —
// and requires both to end in the centre's component, which step 4 takes to
// hold every core of Z.
func TestShortQueryRacingCoresJoinTheCentre(t *testing.T) {
	const eps, minPts = 1.0, 3
	for _, dim := range []int{2, 5} {
		pts := []geom.Point{along(dim, 0, 0), along(dim, 0.01, 0), along(dim, 0.02, 0), along(dim, 0.985, 0), along(dim, 0.99, 0)}
		const cz, q, q2 = 0, 3, 4

		r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, len(pts), Options{})
		r.preliminaryClusters()
		z := int(r.ix.PointMC[q])
		if r.ix.NumMCs() != 1 || r.ix.CenterID(z) != cz || !r.mcWhole[z] || r.flags.get(q) != 0 || r.flags.get(q2) != 0 {
			t.Fatalf("d=%d: the set misses its point: %d MCs, centre %d, whole %v, flags %d %d",
				dim, r.ix.NumMCs(), r.ix.CenterID(z), r.mcWhole[z], r.flags.get(q), r.flags.get(q2))
		}
		w := &r.workers[0]
		r.flags.raise(q, flagCore)
		r.flags.raise(q2, flagCore)
		r.processPoint(w, q)
		r.processPoint(w, q2)
		if w.queries != 2 || w.requeries != 0 || w.wndqDynamic != 0 {
			t.Fatalf("d=%d: %d queries, %d rerun, %d promoted; want 2, 0, 0", dim, w.queries, w.requeries, w.wndqDynamic)
		}
		if c := r.uf.Find(cz); r.uf.Find(q) != c || r.uf.Find(q2) != c {
			t.Fatalf("d=%d: q and q′ are not in the centre's component", dim)
		}
	}
}

// TestShortQueryRerunsUndecidedPoints: non-core points beside a whole
// micro-cluster Z (a core one: centre 0.875, five members out to 1.75 and a
// rim member e straight up). b = 0 lies within ε of Z's centre but belongs to
// the sparse micro-cluster the deferred pass makes of −0.5, so it reaches
// step 3 with no flag, with Z settled (and the ε/2 region test failing, so
// all it gets of Z is the centre) and three neighbors in all; e, a member of
// Z and settled on it, has three as well. Both must be queried again, store
// their whole neighborhoods for Algorithm 8 and join Z's cluster. n2,
// straight above e, has e for its only neighbor: Z is in reach but not
// settled, the first walk is the full one, and the neighborhood stored is
// the reference's, order included — as for every other non-core point.
func TestShortQueryRerunsUndecidedPoints(t *testing.T) {
	const eps, minPts = 1.0, 5
	for _, dim := range []int{2, 5} {
		pts := []geom.Point{
			along(dim, -1.5, 0), along(dim, -2, 0), // a sparse micro-cluster, noise
			along(dim, -0.5, 0), // deferred, then a centre: noise
			along(dim, 0, 0),    // b, deferred, then a member of −0.5's
			along(dim, 0.875, 0), along(dim, 1.25, 0), along(dim, 1.375, 0), along(dim, 1.5, 0), along(dim, 1.625, 0), along(dim, 1.75, 0),
			along(dim, 0.875, 0.9375), // e
			along(dim, 0.875, 1.875),  // n2
		}
		const b, cz, e, n2 = 3, 4, 10, 11

		r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, len(pts), Options{})
		r.preliminaryClusters()
		z := int(r.ix.PointMC[cz])
		if r.ix.CenterID(z) != cz || !r.mcWhole[z] || int(r.ix.PointMC[b]) == z || int(r.ix.PointMC[e]) != z ||
			r.flags.get(b) != 0 || r.flags.get(e) != 0 || geom.DistSq(pts[b], pts[cz]) >= eps*eps {
			t.Fatalf("d=%d: the set misses its point: b in MC %d, e in MC %d, Z = %d (whole %v)",
				dim, r.ix.PointMC[b], r.ix.PointMC[e], z, r.mcWhole[z])
		}
		w := &r.workers[0]
		rerun := map[int]bool{}
		for i := range pts {
			if r.flags.get(i)&flagWndq == 0 {
				before := w.requeries
				r.processPoint(w, i)
				rerun[i] = w.requeries > before
			}
		}
		if !rerun[b] || !rerun[e] || rerun[n2] {
			t.Fatalf("d=%d: rerun b %v, e %v, n2 %v; want true, true, false", dim, rerun[b], rerun[e], rerun[n2])
		}

		one := holdToUnshortened(t, pts, eps, minPts, len(pts))
		res, _ := Run(pts, eps, minPts, Options{})
		if one.Core[b] || one.Core[e] || res.Labels[b] != res.Labels[cz] || res.Labels[e] != res.Labels[cz] {
			t.Fatalf("d=%d: b and e are not borders of Z's cluster", dim)
		}
		if got := one.stored[n2]; !slices.Equal(got, []int32{e, n2}) && !slices.Equal(got, []int32{n2, e}) {
			t.Fatalf("d=%d: n2's stored neighborhood %v", dim, got)
		}
		if len(one.stored) != 6 || one.stored[b] == nil || one.stored[e] == nil {
			t.Fatalf("d=%d: %d stored neighborhoods, want b's, e's and four noise points'", dim, len(one.stored))
		}
	}
}

// TestShortQueryHaloStrip: RunLocal over fat micro-clusters with a strip of
// halo points through them, some of which only their owners can prove core.
// Every micro-cluster of at least MinPts members is whole, also where step 1
// leaves a halo member unproven: the swap promotes the ones that are core
// into the centre's component, so step 3 may settle such a micro-cluster and
// step 4 finds it one component, never mixed. The step-by-step run must meet
// the unshortened reference, and RunLocal the step-by-step run's flags and
// components.
func TestShortQueryHaloStrip(t *testing.T) {
	const eps, minPts = 0.25, 6
	all := data.HouseholdLike(8000, 5, 1)
	lo, hi := all[0][0], all[0][0]
	for _, p := range all {
		lo, hi = min(lo, p[0]), max(hi, p[0])
	}
	// The strip is a fortieth of the first axis' range, where the data is.
	inStrip := func(p geom.Point) bool {
		return p[0] >= all[0][0]-(hi-lo)/80 && p[0] < all[0][0]+(hi-lo)/80
	}
	var pts, halo []geom.Point
	for _, p := range all {
		if inStrip(p) {
			halo = append(halo, p)
		} else {
			pts = append(pts, p)
		}
	}
	localCount := len(pts)
	pts = append(pts, halo...)
	exact, _ := dbscan.Brute(pts, eps, minPts)

	one := holdToUnshortened(t, pts, eps, minPts, localCount)
	r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, localCount, Options{})
	r.preliminaryClusters()
	r.processRemaining()
	open := map[int]bool{} // fat micro-clusters with a halo member step 1 left unproven that is core
	for k := 0; k < r.ix.NumMCs(); k++ {
		for _, q := range r.ix.Members(k) {
			if int(q) >= localCount && exact.Core[q] && r.flags.get(int(q)) == 0 && len(r.ix.Members(k)) >= 10*minPts {
				open[k] = true
			}
		}
	}
	r.swap(swapFrom(exact.Core, localCount))
	r.classifyMCs()
	for k := range open {
		root := r.uf.Find(r.ix.CenterID(k))
		for _, q := range r.ix.Members(k) {
			if r.flags.get(int(q))&flagCore != 0 && r.uf.Find(int(q)) != root {
				t.Fatalf("MC %d: core %d is not in the centre's component after the swap", k, q)
			}
		}
		if !r.mcWhole[k] || r.mcClass[k] != int32(r.ix.CenterID(k)) {
			t.Fatalf("MC %d of %d members: whole %v, class %d; want one component", k, len(r.ix.Members(k)), r.mcWhole[k], r.mcClass[k])
		}
	}
	if len(halo) < 50 || len(open) == 0 || one.Stats.Requeries == 0 {
		t.Fatalf("%d halo points, %d fat micro-clusters the strip opens, %d reruns: the set misses its point",
			len(halo), len(open), one.Stats.Requeries)
	}
	got := RunLocal(geom.PointSetFromPoints(5, pts), eps, minPts, localCount, Options{}, Halo{Swap: swapFrom(exact.Core, localCount)})
	if _, ok := samePartition(roots(got.Comp), roots(one.Comp), func(i int) bool { return one.Core[i] }); !ok || !reflect.DeepEqual(got.Core, one.Core) {
		t.Fatal("RunLocal's flags or core components differ from the step-by-step run's")
	}
}

// centreHitSet is one point at every (x·ε/4, y·ε/2) of a cols × rows lattice
// at ε = 1, embedded in dim dimensions: every squared distance is a multiple
// of ε²/16, so ε/2 and ε occur exactly, and it is sparse enough that a
// micro-cluster's MinPts closest members reach past ε/2 from its centre.
func centreHitSet(dim, cols, rows int) []geom.Point {
	var pts []geom.Point
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			pts = append(pts, along(dim, float64(x)/4, float64(y)/2))
		}
	}
	return pts
}

// TestShortQueryCentreHit: on lattices whose every squared distance is a
// multiple of ε²/16 the centre of a settled micro-cluster sits at exactly ε/2
// of queried points (outside the strict ε/2 walk: it must be added) and at
// exactly ε (outside the strict ε-neighborhood: it must not), and inside ε/2,
// where the walk has it already. (A point that close to a centre is queried
// only when the micro-cluster's MinPts closest members reach at least as far
// past ε/2 — d + r_k ≥ ε, cut (g) — which a lattice with every distance a
// multiple of ε/2 and a point repeated at every position never has.) After
// every query the scratch must hold no id twice, nothing at ε or beyond, every
// point strictly within ε/2, and each hit's squared distance.
func TestShortQueryCentreHit(t *testing.T) {
	const eps = 1.0
	for _, c := range []struct {
		dim, cols, rows, minPts int
	}{{2, 24, 9, 4}, {2, 24, 9, 7}, {3, 40, 3, 4}, {5, 24, 9, 4}, {14, 24, 9, 7}} {
		pts := centreHitSet(c.dim, c.cols, c.rows)
		name := fmt.Sprintf("d=%d %dx%d minPts=%d", c.dim, c.cols, c.rows, c.minPts)
		r := newRun(mc.Build(pts, eps, c.minPts, mc.Options{}), eps, c.minPts, len(pts), Options{})
		r.preliminaryClusters()
		w := &r.workers[0]
		var atHalf, atEps, inside, short int
		for i := range pts {
			if r.flags.get(i)&flagWndq != 0 {
				continue
			}
			own := int(r.ix.PointMC[i])
			rootP := -1
			if r.mcWhole[own] {
				rootP = r.uf.Find(r.ix.CenterID(own))
			}
			var settled []int // centres of the micro-clusters this query will settle
			var onHalf, onEps, in int
			for _, z := range r.ix.Reach(int(r.ix.PointMC[i])) {
				cz := r.ix.CenterID(int(z))
				d2 := geom.DistSq(pts[i], pts[cz])
				if r.mcWhole[z] && (d2 < eps*eps || d2 < 4*eps*eps && r.uf.Find(cz) == rootP) {
					settled = append(settled, cz)
					switch {
					case d2 == eps*eps:
						onEps++
					case d2 == eps*eps/4:
						onHalf++
					case d2 < eps*eps/4:
						in++
					}
				}
			}
			before, queries := w.requeries, w.queries
			r.processPoint(w, i)
			if w.queries == queries {
				continue // proven core by a micro-cluster's MinPts-radius, no query
			}
			atHalf, atEps, inside = atHalf+onHalf, atEps+onEps, inside+in
			hits := slices.Clone(w.nbhd)
			for k, q := range hits {
				if d2 := geom.DistSq(pts[i], pts[q]); d2 >= eps*eps || d2 != w.dist[k] {
					t.Fatalf("%s: query %d: hit %d at d² %v, handed over as %v", name, i, q, d2, w.dist[k])
				}
			}
			slices.Sort(hits)
			if len(slices.Compact(slices.Clone(hits))) != len(hits) {
				t.Fatalf("%s: query %d: a hit twice in %v", name, i, hits)
			}
			full := 0
			for q := range pts {
				d2 := geom.DistSq(pts[i], pts[q])
				if _, hit := slices.BinarySearch(hits, q); d2 < eps*eps/4 && !hit {
					t.Fatalf("%s: query %d: misses %d, strictly within ε/2", name, i, q)
				}
				if d2 < eps*eps {
					full++
				}
			}
			if w.requeries == before && len(hits) < full {
				short++
				// Decided short: every settled centre within ε is among the hits.
				for _, cz := range settled {
					if _, hit := slices.BinarySearch(hits, cz); geom.DistSq(pts[i], pts[cz]) < eps*eps && !hit {
						t.Fatalf("%s: query %d: settled centre %d, within ε, is not a hit", name, i, cz)
					}
				}
			} else if len(hits) != full {
				t.Fatalf("%s: query %d: %d hits of %d and no short decision", name, i, len(hits), full)
			}
		}
		if atHalf == 0 || atEps == 0 || inside == 0 || short == 0 {
			t.Fatalf("%s: settled centres at exactly ε/2: %d, at exactly ε: %d, inside ε/2: %d; queries decided short: %d — the set misses a case",
				name, atHalf, atEps, inside, short)
		}
		for _, workers := range []int{1, 2, 4} {
			requireExact(t, fmt.Sprintf("%s workers=%d", name, workers), pts, eps, c.minPts, Options{Workers: workers})
		}
	}
}

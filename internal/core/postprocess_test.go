package core

import (
	"fmt"
	"math"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// postProcessCoreUnpruned is Algorithm 7 with nothing taken away: every
// wndq-core against every member of every reachable micro-cluster, one kernel
// call a pair — no 2ε rule, no region test, no component shortcut, no
// triangle-inequality bound. It is what postProcessCore must be equivalent to.
func postProcessCoreUnpruned(r *run) {
	eps2 := r.eps * r.eps
	for pid := 0; pid < r.set.Len(); pid++ {
		if r.flags.get(pid)&flagWndq == 0 {
			continue
		}
		p := r.set.Point(pid)
		for _, rid := range r.ix.Reach(int(r.ix.PointMC[pid])) {
			for _, q := range r.ix.Members(int(rid)) {
				if int(q) != pid && r.flags.get(int(q))&flagCore != 0 && r.kern(p, r.set.Row(int(q))) < eps2 {
					r.uf.Union(pid, int(q))
				}
			}
		}
	}
}

// TestPostProcessMatchesUnpruned: steps 1–3 at one worker are deterministic,
// so two runs over the same input reach step 4 in the same state; one takes
// the pruned pass and one the reference, and the union-find partitions (whose
// representatives are canonical: the smallest index of a set) must come out
// identical, point for point. On every driver dataset and on reduced
// analogues of the two high-d benchmark workloads, where most skips happen.
func TestPostProcessMatchesUnpruned(t *testing.T) {
	cases := driverCases()
	cases = append(cases,
		driverCase{"bio-like-14d", data.BioLike(3000, 14, 1), 600, 5},
		driverCase{"household-like-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var roots [2][]int
			var centerCalcs int64
			for side, post := range []func(*run){(*run).postProcessCore, postProcessCoreUnpruned} {
				ix := mc.Build(c.pts, c.eps, c.minPts, mc.Options{})
				r := newRun(ix, c.eps, c.minPts, len(c.pts), Options{})
				r.preliminaryClusters()
				r.processRemaining()
				post(r)
				r.postProcessNoise()
				for i := range c.pts {
					roots[side] = append(roots[side], r.uf.Find(i))
				}
				if side == 0 {
					centerCalcs = r.workers[0].centerCalcs
				}
			}
			for i := range c.pts {
				if roots[0][i] != roots[1][i] {
					t.Fatalf("point %d: component %d pruned, %d unpruned", i, roots[0][i], roots[1][i])
				}
			}
			if centerCalcs == 0 {
				t.Fatal("the pruned pass counted no centre test")
			}
		})
	}
}

// boundarySet is a point set whose every distance is a multiple of ε/2 at
// ε = 1: a run of positions 0, 1/2, 1, … along the first axis, each occupied
// three times, and — when rows > 1 — the same run again at every half step
// along the second axis (a lattice, so the 3-4-5 triangles give exact
// diagonals too), embedded in dim dimensions.
func boundarySet(dim, cols, rows int) []geom.Point {
	var pts []geom.Point
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			for copies := 0; copies < 3; copies++ {
				p := make(geom.Point, dim)
				p[0], p[dim-1] = float64(x)/2, float64(y)/2
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// TestPruningBoundaries: the triangle-inequality skips sit exactly on their
// thresholds. On collinear and lattice sets at d = 5 and d = 14 the bounds
// d(cA, cZ) − d(p, cA) = 2ε and |d(p, cZ) − d(q, cZ)| = ε occur with no
// rounding at all (the test finds such triples in the index before it trusts
// the run), which is where a skip that fired at the threshold itself, or a
// bounded kernel that stopped at it, would change a label.
func TestPruningBoundaries(t *testing.T) {
	const eps = 1.0
	for _, dim := range []int{5, 14} {
		for name, pts := range map[string][]geom.Point{
			"collinear": boundarySet(dim, 40, 1),
			"lattice":   boundarySet(dim, 12, 9),
		} {
			t.Run(fmt.Sprintf("%s/d=%d", name, dim), func(t *testing.T) {
				ix := mc.Build(pts, eps, 4, mc.Options{})
				var centerTies, memberTies int
				for a := 0; a < ix.NumMCs(); a++ {
					for _, z := range ix.Reach(a) {
						zc := ix.Center(int(z))
						az := math.Sqrt(geom.DistSq(ix.Center(a), zc))
						for _, p := range ix.Members(a) {
							if az-ix.CenterDist[p] == 2*eps {
								centerTies++
							}
							pz := math.Sqrt(geom.DistSq(pts[p], zc))
							for _, q := range ix.Members(int(z)) {
								if math.Abs(pz-ix.CenterDist[q]) == eps {
									memberTies++
								}
							}
						}
					}
				}
				if centerTies == 0 || memberTies == 0 {
					t.Fatalf("%d centre bounds at exactly 2ε, %d member bounds at exactly ε; the set misses a boundary", centerTies, memberTies)
				}
				for _, minPts := range []int{3, 4, 7} {
					for _, workers := range []int{1, 2, 4} {
						requireExact(t, fmt.Sprintf("minPts=%d workers=%d", minPts, workers),
							pts, eps, minPts, Options{Workers: workers})
					}
				}
			})
		}
	}
}

// bridgeSet is two micro-clusters on a line (embedded in dim dimensions)
// whose only connection is one pair of wndq-cores p and q, gap apart: nobody
// queries either of them, so the pair is examined by post-processing alone,
// once from each end. p sits at offset from its centre, q mirrors it. With
// offset < ε/2 both are inner-circle members of dense micro-clusters; with
// offset ≥ 7ε/8 each is promoted by a queried neighbor that is itself out of
// the other's reach. Collinear, so both triangle-inequality bounds are tight:
// the centre bound is gap + offset against 2ε, the member bound gap against ε.
func bridgeSet(dim int, offset, gap float64) []geom.Point {
	at := func(x float64, copies int) []geom.Point {
		pts := make([]geom.Point, copies)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			pts[i][0] = x
		}
		return pts
	}
	far := offset + gap + offset // the second centre
	var pts []geom.Point
	for _, side := range []struct{ centre, sign float64 }{{0, 1}, {far, -1}} {
		pts = append(pts, at(side.centre, 3)...)
		if offset < 0.5 {
			pts = append(pts, at(side.centre+side.sign*offset, 2)...)
		} else {
			pts = append(pts, at(side.centre+side.sign*(offset-0.375), 3)...)
			pts = append(pts, at(side.centre+side.sign*offset, 1)...)
		}
	}
	return pts
}

// TestBridgeOnlyPostProcessingSees walks the gap across ε in steps down to
// 2⁻⁴⁰ε — every coordinate an exact binary fraction — with the bridging cores
// inside the inner circle and out at the rim, where gap + offset crosses 2ε
// as well: a skip that fires a hair early loses the bridge and splits the
// cluster, a bounded kernel that stops a hair early likewise.
func TestBridgeOnlyPostProcessingSees(t *testing.T) {
	const eps, minPts = 1.0, 4
	for _, dim := range []int{2, 5, 14} {
		for _, k := range []int{4, 7, 20, 40} {
			tiny := math.Ldexp(1, -k)
			for _, offset := range []float64{0.375, 1 - tiny} {
				for _, gap := range []float64{1 - tiny, 1, 1 + tiny} {
					pts := bridgeSet(dim, offset, gap)
					name := fmt.Sprintf("d=%d offset=%v gap=1%+g", dim, offset, gap-1)
					for _, workers := range []int{1, 2, 4} {
						requireExact(t, name, pts, eps, minPts, Options{Workers: workers})
					}
					r, st := Run(pts, eps, minPts, Options{})
					clusters := 2
					if gap < eps {
						clusters = 1
					}
					if r.NumClusters != clusters || r.NumNoise() != 0 {
						t.Fatalf("%s: %d clusters, %d noise; want %d, 0", name, r.NumClusters, r.NumNoise(), clusters)
					}
					// Inner-circle bridge: dense micro-clusters, nobody is queried.
					// Rim bridge: per side the centre's two copies and the one
					// promoter; every further query would be p's or q's own.
					queried := 6
					if offset < 0.5 {
						queried = 0
					}
					if st.Queries != queried {
						t.Fatalf("%s: %d queries, want %d: the bridge is not left to post-processing", name, st.Queries, queried)
					}
				}
			}
		}
	}
}

// TestPruningOffAtExtremeEps: where ε² nears under- or overflow the kernel
// values no longer carry the relative precision the δ margin was sized for,
// so the run must turn its triangle-inequality skips off (NaN thresholds: no
// bound reaches them) and stay exact through the kernel tests alone. The
// bridge sets scale exactly: every factor is a power of two.
func TestPruningOffAtExtremeEps(t *testing.T) {
	for _, c := range []struct {
		eps    float64
		pruned bool
	}{{0x1p-520, false}, {0x1p-451, false}, {0x1p-449, true}, {0x1p449, true}, {0x1p451, false}, {0x1p520, false}} {
		for _, offset := range []float64{0.375, 1 - 0x1p-20} {
			for _, gap := range []float64{1 - 0x1p-20, 1, 1 + 0x1p-20} {
				pts := bridgeSet(5, offset, gap)
				for _, p := range pts {
					p[0] *= c.eps
				}
				requireExact(t, fmt.Sprintf("eps=%g offset=%v gap=1%+g", c.eps, offset, gap-1), pts, c.eps, 4, Options{})
				r := newRun(mc.Build(pts, c.eps, 4, mc.Options{}), c.eps, 4, len(pts), Options{})
				if pruned := !math.IsNaN(r.far1) && !math.IsNaN(r.far2); pruned != c.pruned {
					t.Fatalf("eps=%g: skips on = %v, want %v (thresholds %v, %v)", c.eps, pruned, c.pruned, r.far1, r.far2)
				}
			}
		}
	}
}

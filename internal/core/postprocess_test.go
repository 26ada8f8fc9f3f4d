package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// postProcessCoreUnpruned is Algorithm 7 with nothing taken away: every
// wndq-core against every member of every reachable micro-cluster, one kernel
// call a pair — no classes, no 2ε rule, no region test, no component shortcut,
// no triangle-inequality bound. It is what postProcessCore must be equivalent
// to, and it walks in the same order (micro-cluster, member, reachable
// micro-cluster, member), so the deferred Pairs must come out equal as a list.
func postProcessCoreUnpruned(r *run) {
	eps2 := r.eps * r.eps
	w := &r.workers[0]
	for a := 0; a < r.ix.NumMCs(); a++ {
		for _, pid := range r.ix.Members(a) {
			if r.flags.get(int(pid))&flagWndq == 0 {
				continue
			}
			p := r.set.Point(int(pid))
			for _, rid := range r.ix.Reach(a) {
				for _, q := range r.ix.Members(int(rid)) {
					if q == pid || geom.DistSq(p, r.set.Point(int(q))) >= eps2 {
						continue
					}
					if r.flags.get(int(q))&flagCore != 0 {
						r.uf.Union(int(pid), int(q))
					} else if r.isHalo(q) && !r.isHalo(pid) {
						w.pairs = append(w.pairs, Pair{A: pid, B: q})
					}
				}
			}
		}
	}
}

// haloSet is the shape step 4's classes are for: pairs of blobs, each blob
// tight enough to be one dense micro-cluster of wndq-cores that nobody
// queries, the two of a pair 1.15ε apart with one point each leaning 0.1ε
// towards the other — so the pair is one cluster, and only step 4 can know —
// and around every pair isolated points at 2.2ε and 3.3ε of its middle: more
// than ε from the blobs and from each other, so each is a noise singleton
// micro-cluster, most of them inside a blob's 3ε reach. The singletons
// outnumber the blobs 15 to 1 at d = 2 (rings of 12 and 18) and 2d to 1 above
// (both ways along every axis).
func haloSet(dim, pairs int, eps float64) []geom.Point {
	rng := rand.New(rand.NewSource(int64(dim)))
	var pts []geom.Point
	for b := 0; b < pairs; b++ {
		middle := make(geom.Point, dim)
		middle[0], middle[dim-1] = 8*eps*float64(b), 1.5*eps*float64(b%2)
		at := func(dx float64) geom.Point {
			p := append(geom.Point(nil), middle...)
			p[0] += dx * eps
			return p
		}
		for _, side := range []float64{-1, 1} {
			pts = append(pts, at(side*0.575)) // first of its blob: the micro-cluster's centre
			for i := 0; i < 18; i++ {
				p := at(side * 0.575)
				for j := range p {
					p[j] += (rng.Float64() - 0.5) * 0.2 * eps / math.Sqrt(float64(dim))
				}
				pts = append(pts, p)
			}
			pts = append(pts, at(side*0.475))
		}
		for _, ring := range []struct {
			radius float64
			count  int // at d = 2
		}{{2.2 * eps, 12}, {3.3 * eps, 18}} {
			if dim > 2 {
				ring.count = 2 * dim
			}
			for i := 0; i < ring.count; i++ {
				p := at(0)
				if dim == 2 {
					sin, cos := math.Sincos(2 * math.Pi * float64(i) / float64(ring.count))
					p[0], p[1] = p[0]+ring.radius*cos, p[1]+ring.radius*sin
				} else {
					p[i/2] += ring.radius * float64(1-2*(i%2))
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// splitMCSet (ε = 1, MinPts = 5; found by random search over quarter-lattice
// sets, one in some 400 000) reaches step 4 with a micro-cluster whose cores
// sit in two components, of which a wndq-core outside it already shares the
// first and is within ε of the second: a classifier that took the first core's
// component for the whole micro-cluster's would skip the visit and lose the
// only examination of that edge (its other end is a queried core, which step 4
// never starts from).
func splitMCSet() []geom.Point {
	xy := []float64{2.25, 2, 2.25, 3, 1.75, 1.5, 0.25, 1.5, 2.25, 3, 2.5, 1.5, 2.5, 1, 3, 0.25, 2, 0, 2.5, 2.5,
		2, 3, 2.75, 0.5, 1.75, 0.25, 1, 0, 0.75, 3, 1.75, 3, 1.75, 1.25, 0, 2.5, 1.75, 1, 2.75, 0,
		2, 1.25, 1.25, 1.75, 0.5, 0.25, 0, 0, 3.25, 3, 0, 0.5, 2, 1, 1, 1.75}
	pts := make([]geom.Point, len(xy)/2)
	for i := range pts {
		pts[i] = geom.Point{xy[2*i], xy[2*i+1]}
	}
	return pts
}

// samePartition reports the first point of keep on which two root arrays
// disagree as partitions (the roots themselves may differ: which point heads
// a component depends on who claimed the borders).
func samePartition(a, b []int, keep func(i int) bool) (int, bool) {
	ab, ba := map[int]int{}, map[int]int{}
	for i := range a {
		if !keep(i) {
			continue
		}
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return i, false
		}
		if x, ok := ba[b[i]]; ok && x != a[i] {
			return i, false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return 0, true
}

// TestPostProcessMatchesUnpruned: steps 1–3 at one worker are deterministic,
// so two runs over the same input reach step 4 in the same state; one takes
// the pruned pass and one the reference, and the union-find partitions (whose
// representatives are canonical: the smallest index of a set) must come out
// identical, point for point. On every driver dataset, on reduced analogues of
// the two high-d benchmark workloads, where most skips happen, and on fat
// micro-clusters in a halo of noise singletons, where most visits are dropped
// before they start. The halo sets also run at 2 and 4 workers, where borders
// may go to either side of a tie and the cores' partition is what must agree.
func TestPostProcessMatchesUnpruned(t *testing.T) {
	cases := append(driverCases(),
		driverCase{"bio-like-14d", data.BioLike(3000, 14, 1), 600, 5},
		driverCase{"household-like-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6},
		driverCase{"split-mc-2d", splitMCSet(), 1, 5},
		driverCase{"halo-2d", haloSet(2, 4, 0.5), 0.5, 5},
		driverCase{"halo-14d", haloSet(14, 3, 600), 600, 5})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			halo := strings.HasPrefix(c.name, "halo")
			workerCounts := []int{1}
			if halo {
				workerCounts = []int{1, 2, 4}
			}
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					var roots [2][]int
					var core []bool
					var centerCalcs, wndq, live, dead int64
					for side, post := range []func(*run){(*run).postProcessCore, postProcessCoreUnpruned} {
						ix := mc.Build(c.pts, c.eps, c.minPts, mc.Options{})
						r := newRun(ix, c.eps, c.minPts, len(c.pts), Options{Workers: workers})
						r.preliminaryClusters()
						r.processRemaining()
						if side == 0 {
							for w := range r.workers {
								centerCalcs -= r.workers[w].centerCalcs
							}
						}
						post(r)
						r.assignBorders()
						for i := range c.pts {
							roots[side] = append(roots[side], r.uf.Find(i))
						}
						if side == 0 {
							for w := range r.workers {
								centerCalcs += r.workers[w].centerCalcs
							}
							for i := range c.pts {
								core = append(core, r.flags.get(i)&flagCore != 0)
								if r.flags.get(i)&flagWndq != 0 {
									wndq++
								}
							}
							for _, class := range r.mcClass {
								if class != mcDead {
									live++
								}
							}
							dead = int64(len(r.mcClass)) - live
						}
					}
					keep := func(i int) bool { return workers == 1 || core[i] }
					if i, ok := samePartition(roots[0], roots[1], keep); !ok {
						t.Fatalf("point %d: component %d pruned, %d unpruned", i, roots[0][i], roots[1][i])
					}
					if workers == 1 && !reflect.DeepEqual(roots[0], roots[1]) {
						t.Fatal("same partition, different representatives")
					}
					if wndq > 0 && centerCalcs == 0 {
						t.Fatal("the pruned pass counted no centre test")
					}
					// A wndq-core tests at most the centres that are live, and the
					// fill of its micro-cluster's list is shared: on the high-d
					// shapes, where the dead are most of every reach list, the
					// whole pass stays below one test per (wndq-core, live MC).
					if strings.HasSuffix(c.name, "14d") && centerCalcs >= wndq*live {
						t.Fatalf("%d centre tests for %d wndq-cores and %d live micro-clusters", centerCalcs, wndq, live)
					}
					if halo {
						clusters := map[int]bool{}
						for i, root := range roots[0] {
							if core[i] {
								clusters[root] = true
							}
						}
						if int64(len(clusters))*2 != live || dead < 10*live {
							t.Fatalf("%d clusters of %d live micro-clusters among %d dead ones; want every pair of blobs bridged, in a halo ten times its size",
								len(clusters), live, dead)
						}
					}
				})
			}
		})
	}
}

// TestPostProcessClasses holds classifyMCs to the definitions, on every dataset
// as it is and with its last fifth playing the halo: a dead micro-cluster has
// no flagged core and no halo member, the representative of a one-component
// micro-cluster is one of its flagged cores and shares its component with
// every other, with no non-core halo member beside them, a mixed one has a
// reason to be, and a micro-cluster that holds a wndq-core — the only kind
// step 4 starts from, and always on its own reach list — is never dead.
func TestPostProcessClasses(t *testing.T) {
	cases := append(driverCases(),
		driverCase{"halo-14d", haloSet(14, 3, 600), 600, 5},
		driverCase{"split-mc-2d", splitMCSet(), 1, 5})
	seen := map[string]int{}
	for _, c := range cases {
		for _, cfg := range []struct{ workers, halo int }{{1, 0}, {1, len(c.pts) / 5}, {4, len(c.pts) / 5}} {
			ix := mc.Build(c.pts, c.eps, c.minPts, mc.Options{})
			r := newRun(ix, c.eps, c.minPts, len(c.pts)-cfg.halo, Options{Workers: cfg.workers})
			r.preliminaryClusters()
			r.processRemaining()
			r.classifyMCs()
			for k, class := range r.mcClass {
				var cores, wndq, deferred int
				roots := map[int]bool{}
				for _, q := range ix.Members(k) {
					switch b := r.flags.get(int(q)); {
					case b&flagCore != 0:
						cores++
						roots[r.uf.Find(int(q))] = true
						if b&flagWndq != 0 {
							wndq++
						}
					case r.isHalo(q):
						deferred++
					}
				}
				name := fmt.Sprintf("%s workers=%d halo=%d MC %d (class %d): %d cores in %d components, %d non-core halo members",
					c.name, cfg.workers, cfg.halo, k, class, cores, len(roots), deferred)
				switch {
				case class == mcDead:
					seen["dead"]++
					if cores != 0 || deferred != 0 {
						t.Fatalf("%s: dead", name)
					}
				case class == mcMixed:
					if deferred > 0 {
						seen["mixed, halo"]++
					} else if len(roots) > 1 {
						seen["mixed, split"]++
					} else {
						t.Fatalf("%s: mixed", name)
					}
				default:
					seen["one component"]++
					if deferred != 0 || len(roots) != 1 || !roots[r.uf.Find(int(class))] ||
						int(ix.PointMC[class]) != k || r.flags.get(int(class))&flagCore == 0 {
						t.Fatalf("%s: one component", name)
					}
				}
				if wndq > 0 && class == mcDead {
					t.Fatalf("%s: holds %d wndq-cores", name, wndq)
				}
				if r.mcWhole[k] && class < 0 {
					t.Fatalf("%s: whole", name)
				}
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("classes seen: %v; the datasets miss one", seen)
	}
}

func comparePairs(a, b Pair) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) }

// TestPostProcessHaloPairs: a micro-cluster made only of non-core halo points
// holds no edge of this rank's, and must be visited all the same — a local
// wndq-core within ε of one of its members owes the merge phase a Pair. The
// set is a dense local blob (nobody is queried, so every Pair past the blob's
// own micro-cluster is step 4's) with halo points around it: two alone in
// their micro-clusters and within ε of some of the blob, one alone and out of
// everyone's ε, one inside the blob's micro-cluster. RunLocal's Pairs must be
// the unfiltered member loop's, element for element and in order.
func TestPostProcessHaloPairs(t *testing.T) {
	const eps, minPts = 1.0, 4
	for _, dim := range []int{2, 14} {
		at := func(x, y float64) geom.Point {
			p := make(geom.Point, dim)
			p[0], p[dim-1] = x, y
			return p
		}
		local := []geom.Point{at(0, 0), at(0, 0), at(0.25, 0), at(0.375, 0), at(0, 0.375), at(-0.25, 0), at(0, -0.375)}
		halo := []geom.Point{at(1.125, 0), at(0, 1.25), at(-2.5, 0), at(-0.75, 0)}
		pts := append(append([]geom.Point(nil), local...), halo...)
		r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, len(local), Options{})
		r.preliminaryClusters()
		r.processRemaining()
		r.classifyMCs()
		for _, h := range []int{len(local), len(local) + 1, len(local) + 2} {
			k := int(r.ix.PointMC[h])
			if len(r.ix.Members(k)) != 1 || r.mcClass[k] != mcMixed {
				t.Fatalf("d=%d: halo point %d in MC %d of %d members, class %d; want a mixed singleton",
					dim, h, k, len(r.ix.Members(k)), r.mcClass[k])
			}
		}
		fromStep1 := len(r.workers[0].pairs)
		postProcessCoreUnpruned(r)
		want := r.workers[0].pairs
		if len(want)-fromStep1 < 4 {
			t.Fatalf("d=%d: the reference defers %d pairs in step 4; the set misses its point", dim, len(want)-fromStep1)
		}
		for _, workers := range []int{1, 2, 4} {
			got := RunLocal(geom.PointSetFromPoints(dim, pts), eps, minPts, len(local), Options{Workers: workers})
			if got.Stats.Queries != 0 {
				t.Fatalf("d=%d: %d queries; the blob is not all wndq-core", dim, got.Stats.Queries)
			}
			if workers > 1 { // per-worker lists, concatenated: the same pairs in some order
				slices.SortFunc(want, comparePairs)
				slices.SortFunc(got.Pairs, comparePairs)
			}
			if !reflect.DeepEqual(got.Pairs, want) {
				t.Fatalf("d=%d workers=%d: Pairs\n%v\nunfiltered member loop\n%v", dim, workers, got.Pairs, want)
			}
		}
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
// bounded sum that stopped at it, would change a label.
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
// cluster, a bounded sum that stops a hair early likewise.
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
					// Rim bridge: per side the one promoter (the centre's copies
					// are within ε of the centre's MinPts closest, and step 1
					// proves them core); every further query would be p's or q's
					// own.
					queried := 2
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
// so the run must turn its triangle-inequality skips and its MinPts-radius
// certificate off (NaN margins: no bound reaches them) and stay exact through
// the kernel tests alone. The bridge sets scale exactly: every factor is a
// power of two.
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
				for _, margin := range []float64{r.far1, r.far2, r.near} {
					if pruned := !math.IsNaN(margin); pruned != c.pruned {
						t.Fatalf("eps=%g: skips on = %v, want %v (margins %v, %v, %v)", c.eps, pruned, c.pruned, r.far1, r.far2, r.near)
					}
				}
			}
		}
	}
}

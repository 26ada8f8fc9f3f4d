package mc

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// sortedEqual reports whether got, sorted in place, is exactly want (which
// bruteNbhd returns ascending).
func sortedEqual(got, want []int) bool {
	sort.Ints(got)
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if got[k] != want[k] {
			return false
		}
	}
	return true
}

// plainNeighborhood is NeighborhoodInto with every auxiliary tree walked
// plainly, the d² sink on: the same centre probe and region filter, so the
// ids in the order the plain walk gives them and its distance count. emitted
// is what the id-only walk hands over wholesale in those same trees.
func plainNeighborhood(ix *Index, p geom.Point) (ids []int, calcs, emitted int) {
	for _, k := range ix.dir.within(p, 2*ix.Eps, false, nil) {
		var c, e int
		ids, c, e = plainTree(ix, k, p, ids)
		calcs, emitted = calcs+c, emitted+e
	}
	return ids, calcs, emitted
}

// plainEpsEmitted is the rows EpsNeighborhoodInto(p, id) emits wholesale: the
// same reach list, 2ε test and region filter, each tree also walked id-only.
func plainEpsEmitted(ix *Index, p geom.Point, id int) (emitted int) {
	reach := ix.Reach(int(ix.PointMC[id]))
	prune2 := 4 * ix.Eps * ix.Eps
	for j, d2 := range ix.CenterDistSq(nil, p, reach, prune2) {
		if d2 < prune2 {
			_, _, e := plainTree(ix, int(reach[j]), p, nil)
			emitted += e
		}
	}
	return emitted
}

// plainTree walks micro-cluster k's auxiliary tree for p both ways, if it
// passes the region filter: plainly, appending to ids with the d² sink on,
// and id-only. It returns the plain walk's ids and distance count and the
// rows the id-only walk emitted wholesale.
func plainTree(ix *Index, k int, p geom.Point, ids []int) (_ []int, calcs, emitted int) {
	root := ix.mcs[k].root
	if !ix.aux.OverlapsRegion(root, p, ix.Eps) {
		return ids, 0, 0
	}
	var d2 []float64
	ids, calcs = ix.aux.SphereDistIntoAt(root, p, ix.Eps, true, ids, &d2)
	_, _, emitted = ix.aux.SphereIDsIntoAt(root, p, ix.Eps, true, nil)
	return ids, calcs, emitted
}

// EpsNeighborhoodInto through a reused buffer returns, for every member
// point, exactly the brute-force ε-neighborhood, and EpsNeighborhoodDistInto
// — the plain walk — the same hits in the same order, each with the kernel's
// own squared distance, at the id-only query's distance count plus the rows
// it emitted wholesale — at d = 3 and past d = 4, where the scans and the
// centre tests run bounded sums. (Hit order, distance-calc and
// trees-searched counts of the plain walk are pinned end to end by
// internal/core's driver_test.go hashes and counters.)
func TestEpsNeighborhoodIntoMatchesBrute(t *testing.T) {
	emitted := 0
	for d, eps := range map[int]float64{3: 0.8, 6: 4} {
		pts, ix := buildRandom(t, 61, 900, d, eps, 5)
		buf, withDist, dist := make([]int, 0, 64), []int(nil), []float64(nil)
		for id := range pts {
			var calcs, trees int
			buf, calcs, trees = ix.EpsNeighborhoodInto(pts[id], id, buf[:0])
			if trees < 1 || trees > ix.NumMCs() || calcs > len(pts) {
				t.Fatalf("d=%d id=%d calcs/trees %d/%d for %d hits", d, id, calcs, trees, len(buf))
			}
			dist = dist[:0]
			withDist, distCalcs, distTrees := ix.EpsNeighborhoodDistInto(pts[id], id, withDist[:0], &dist)
			rows := plainEpsEmitted(ix, pts[id], id)
			if len(withDist) != len(buf) || len(dist) != len(buf) || distCalcs != calcs+rows || distTrees != trees {
				t.Fatalf("d=%d id=%d: %d ids, %d distances, calcs/trees %d/%d; id-only query %d, %d+%d emitted/%d",
					d, id, len(withDist), len(dist), distCalcs, distTrees, len(buf), calcs, rows, trees)
			}
			emitted += rows
			for k, q := range buf {
				if withDist[k] != q || dist[k] != geom.DistSq(pts[q], pts[id]) {
					t.Fatalf("d=%d id=%d hit %d: (%d, %v), want (%d, %v)",
						d, id, k, withDist[k], dist[k], q, geom.DistSq(pts[q], pts[id]))
				}
			}
			if !sortedEqual(buf, bruteNbhd(pts, pts[id], ix.Eps)) {
				t.Fatalf("d=%d id=%d neighborhood diverges from brute force", d, id)
			}
		}
	}
	if emitted == 0 {
		t.Fatal("no query emitted a node wholesale")
	}
}

// queryPoints derives the arbitrary-point probes for one dataset: members,
// members pushed exactly ε along one axis (the strict boundary), midpoints
// of random pairs, points 0.5ε, 1.5ε and 2.5ε outside the data MBR (inside
// ε of the hull, inside 2ε only of centres, beyond everything), and one far
// point. The member probes come first: qs[k] is dataset point memberIDs[k].
func queryPoints(rng *rand.Rand, pts []geom.Point, eps float64) (memberIDs []int, qs []geom.Point) {
	n, d := len(pts), len(pts[0])
	stride := max(1, n/120)
	for i := 0; i < n; i += stride {
		memberIDs = append(memberIDs, i)
		qs = append(qs, pts[i])
	}
	for i := 0; i < n; i += stride {
		for _, sign := range []float64{-1, 1} {
			q := pts[i].Clone()
			q[i%d] += sign * eps
			qs = append(qs, q)
		}
	}
	for k := 0; k < 100; k++ {
		a, b := pts[rng.Intn(n)], pts[rng.Intn(n)]
		q := make(geom.Point, d)
		for j := range q {
			q[j] = (a[j] + b[j]) / 2
		}
		qs = append(qs, q)
	}
	hull := geom.MBRFromPoints(pts)
	for _, off := range []float64{0.5, 1.5, 2.5} {
		corner := hull.Max.Clone()
		for j := range corner {
			corner[j] += off * eps
		}
		qs = append(qs, corner)
		for k := 0; k < 20; k++ {
			q := pts[rng.Intn(n)].Clone()
			if axis := k % d; k%2 == 0 {
				q[axis] = hull.Max[axis] + off*eps
			} else {
				q[axis] = hull.Min[axis] - off*eps
			}
			qs = append(qs, q)
		}
	}
	far := hull.Max.Clone()
	far[0] += 1000 * eps
	return memberIDs, append(qs, far)
}

// TestNeighborhoodIntoMatchesBrute holds the arbitrary-point query — the
// path the daemon serves — to brute force on every conformance and scenario
// dataset, for query points on, near and off the data, and to the plain walk
// exactly: the same ids in the same order, with its distance count plus the
// rows emitted wholesale equal to the plain walk's. A non-empty dst prefix
// must survive. For a member point the ids must be the set
// EpsNeighborhoodInto returns, and EpsNeighborhoodInto is held to the plain
// walk the same way.
func TestNeighborhoodIntoMatchesBrute(t *testing.T) {
	type dataset struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}
	var sets []dataset
	for _, c := range data.ConformanceCases() {
		sets = append(sets, dataset{c.Name, c.Pts, c.Eps, c.MinPts})
	}
	for _, s := range data.Scenarios() {
		sets = append(sets, dataset{s.Name, s.Pts, s.Eps, s.MinPts})
	}
	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			ix := Build(s.pts, s.eps, s.minPts, Options{})
			rng := rand.New(rand.NewSource(83))
			memberIDs, qs := queryPoints(rng, s.pts, s.eps)
			buf := []int{-7, -9}
			var member []int
			for k, q := range qs {
				var calcs int
				buf, calcs = ix.NeighborhoodInto(q, buf[:2])
				if buf[0] != -7 || buf[1] != -9 {
					t.Fatalf("query %d: dst prefix overwritten: %v", k, buf[:2])
				}
				got := buf[2:]
				plain, plainCalcs, rows := plainNeighborhood(ix, q)
				if !slices.Equal(got, plain) || calcs+rows != plainCalcs {
					t.Fatalf("query %d at %v: %v, %d calcs + %d emitted; plain walk %v, %d calcs", k, q, got, calcs, rows, plain, plainCalcs)
				}
				if !sortedEqual(got, bruteNbhd(s.pts, q, s.eps)) {
					t.Fatalf("query %d at %v: neighborhood diverges from brute force", k, q)
				}
				if k < len(memberIDs) {
					id := memberIDs[k]
					var memberCalcs int
					member, memberCalcs, _ = ix.EpsNeighborhoodInto(q, id, member[:0])
					var dist []float64
					plain, plainCalcs, _ := ix.EpsNeighborhoodDistInto(q, id, nil, &dist)
					if rows := plainEpsEmitted(ix, q, id); !slices.Equal(member, plain) || memberCalcs+rows != plainCalcs {
						t.Fatalf("member %d: %v, %d calcs + %d emitted; plain walk %v, %d calcs", id, member, memberCalcs, rows, plain, plainCalcs)
					}
					if !sortedEqual(member, got) {
						t.Fatalf("member %d: differs from EpsNeighborhoodInto", id)
					}
				}
			}
		})
	}
}

// FuzzNeighborhoodInto: a byte-derived dataset and query point, both
// quantised to steps of 0.375 = ε/2 (so distances of exactly ε to a point
// and exactly 2ε to a centre are the common case), arbitrary-point query
// against brute force. b[0]/48 picks the query's ε: 0.75, or one ulp above
// or below it, so a tree node whose farthest corner is at 0.75 from the
// query lies exactly on, one ulp inside or one ulp outside the ball (the
// last four seeds: the micro-cluster {0, 0.375} seen from −0.375 at each ε,
// and 21 points of the block {0, 0.375}² seen from its corner at the ε one
// ulp below, a two-leaf tree inside the ball).
func FuzzNeighborhoodInto(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 4, 0, 1, 1, 255, 255, 8, 8, 8, 0})
	f.Add([]byte{1, 4, 0, 2, 4, 6, 8, 10, 3, 3, 250, 248})
	f.Add([]byte{3, 1, 1, 1, 7, 7, 7, 9, 9, 9, 7, 9, 7, 128, 0, 127, 5, 5, 5})
	f.Add([]byte{6, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 255, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{48, 255, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{96, 255, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{97, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1,
		0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 1 {
			return
		}
		dim := 1 + int(b[0])%6
		const step = 0.75 / 2
		eps := [3]float64{2 * step, math.Nextafter(2*step, 1), math.Nextafter(2*step, 0)}[int(b[0])/48%3]
		var pts []geom.Point
		for body := b[1:]; len(body) >= dim && len(pts) < 401; body = body[dim:] {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = float64(int8(body[j])) * step
			}
			pts = append(pts, p)
		}
		if len(pts) < 2 {
			return
		}
		q, pts := pts[0], pts[1:]
		ix := Build(pts, eps, 3, Options{SkipReachable: true})
		got, calcs := ix.NeighborhoodInto(q, nil)
		if plain, plainCalcs, rows := plainNeighborhood(ix, q); !slices.Equal(got, plain) || calcs+rows != plainCalcs {
			t.Fatalf("q=%v eps=%v: %v, %d calcs + %d emitted; plain walk %v, %d calcs", q, eps, got, calcs, rows, plain, plainCalcs)
		}
		if want := bruteNbhd(pts, q, eps); !sortedEqual(got, want) {
			t.Fatalf("q=%v eps=%v over %d points: got %v want %v", q, eps, len(pts), got, want)
		}
	})
}

// A steady-state ε-neighborhood query must not allocate: the reachable-list
// walk, the MBR filter and the auxiliary-tree scans are all in-place.
func TestEpsNeighborhoodIntoZeroAllocs(t *testing.T) {
	pts, ix := buildRandom(t, 71, 2000, 3, 0.8, 5)
	buf := make([]int, 0, 2048)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		id := i % len(pts)
		buf, _, _ = ix.EpsNeighborhoodInto(ix.Point(id), id, buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("EpsNeighborhoodInto allocated %.1f times per query; want 0", allocs)
	}
}

// The distance-carrying query shares the contract: two warmed buffers, no
// allocation.
func TestEpsNeighborhoodDistIntoZeroAllocs(t *testing.T) {
	pts, ix := buildRandom(t, 71, 2000, 3, 0.8, 5)
	buf, dist := make([]int, 0, 2048), make([]float64, 0, 2048)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		id := i % len(pts)
		dist = dist[:0]
		buf, _, _ = ix.EpsNeighborhoodDistInto(ix.Point(id), id, buf[:0], &dist)
		i++
	})
	if allocs != 0 {
		t.Fatalf("EpsNeighborhoodDistInto allocated %.1f times per query; want 0", allocs)
	}
}

// NeighborhoodInto shares the warmed-buffer contract: the centre query, its
// staging inside dst, the MBR filter and the per-tree scans allocate nothing
// in steady state — for member and for off-data query points alike.
func TestNeighborhoodIntoZeroAllocs(t *testing.T) {
	pts, ix := buildRandom(t, 79, 1200, 3, 0.8, 5)
	buf := make([]int, 0, 2048)
	i := 0
	q := make(geom.Point, 3)
	allocs := testing.AllocsPerRun(100, func() {
		copy(q, pts[i%len(pts)])
		q[i%3] += float64(i%4) * 0.3
		buf, _ = ix.NeighborhoodInto(q, buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("NeighborhoodInto allocated %.1f times per query; want 0", allocs)
	}
}

// The Index's contiguous store must hold exactly the input points, each
// read by its id, and every MC centre must be its centre point.
func TestIndexPointsStore(t *testing.T) {
	pts, ix := buildRandom(t, 73, 400, 4, 0.9, 5)
	if ix.Points.Len() != len(pts) {
		t.Fatalf("store holds %d of %d points", ix.Points.Len(), len(pts))
	}
	for i, p := range pts {
		if !ix.Point(i).Equal(p) {
			t.Fatalf("point %d diverges from input point", i)
		}
	}
	for _, m := range views(ix) {
		if !m.Center.Equal(ix.Point(m.CenterID)) {
			t.Fatalf("MC %d center diverges from its point", m.ID)
		}
	}
}

// BenchmarkNeighborhoodInto times the daemon's ε-query on bio14d- and
// household5d-shaped data at the repository benchmark's ε, from dataset
// rows. It reports the mean per query, over the queries the loop cycles
// through, of the distances computed, the rows emitted wholesale and the
// hits; each of those queries is first held to the plain walk (same ids in
// the same order, distances plus wholesale rows equal to its count).
func BenchmarkNeighborhoodInto(b *testing.B) {
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}{
		{"bio14d", data.BioLike(14500, 14, 1), 600, 5},
		{"household5d", data.HouseholdLike(120000, 5, 1), 0.25, 6},
	} {
		ix := Build(c.pts, c.eps, c.minPts, Options{SkipReachable: true})
		rng := rand.New(rand.NewSource(7))
		qs := make([]geom.Point, 256)
		var calcs, emitted, hits int
		for i := range qs {
			qs[i] = c.pts[rng.Intn(len(c.pts))]
			got, k := ix.NeighborhoodInto(qs[i], nil)
			plain, plainCalcs, rows := plainNeighborhood(ix, qs[i])
			if !slices.Equal(got, plain) || k+rows != plainCalcs {
				b.Fatalf("%s query %d: %d ids, %d calcs + %d emitted; plain walk %d ids, %d calcs", c.name, i, len(got), k, rows, len(plain), plainCalcs)
			}
			calcs, emitted, hits = calcs+k, emitted+rows, hits+len(got)
		}
		b.Run(c.name, func(b *testing.B) {
			buf := make([]int, 0, 1<<14)
			for i := 0; i < b.N; i++ {
				buf, _ = ix.NeighborhoodInto(qs[i%len(qs)], buf[:0])
			}
			n := float64(len(qs))
			b.ReportMetric(float64(calcs)/n, "distcalcs/op")
			b.ReportMetric(float64(emitted)/n, "emitted/op")
			b.ReportMetric(float64(hits)/n, "hits/op")
		})
	}
}

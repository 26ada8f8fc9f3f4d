package mc

import (
	"math/rand"
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

// EpsNeighborhoodInto through a reused buffer returns, for every member
// point, exactly the brute-force ε-neighborhood, and EpsNeighborhoodDistInto
// the same hits in the same order at the same cost, each with the kernel's
// own squared distance — at d = 3 and past d = 4, where the scans and the
// centre tests run bounded sums. (Hit order, distance-calc and
// trees-searched counts are pinned end to end by internal/core's
// driver_test.go hashes and counters.)
func TestEpsNeighborhoodIntoMatchesBrute(t *testing.T) {
	for d, eps := range map[int]float64{3: 0.8, 6: 4} {
		pts, ix := buildRandom(t, 61, 900, d, eps, 5)
		buf, withDist, dist := make([]int, 0, 64), []int(nil), []float64(nil)
		for id := range pts {
			var calcs, trees int
			buf, calcs, trees = ix.EpsNeighborhoodInto(pts[id], id, buf[:0])
			if trees < 1 || trees > ix.NumMCs() || calcs < len(buf) || calcs > len(pts) {
				t.Fatalf("d=%d id=%d calcs/trees %d/%d for %d hits", d, id, calcs, trees, len(buf))
			}
			dist = dist[:0]
			withDist, distCalcs, distTrees := ix.EpsNeighborhoodDistInto(pts[id], id, withDist[:0], &dist)
			if len(withDist) != len(buf) || len(dist) != len(buf) || distCalcs != calcs || distTrees != trees {
				t.Fatalf("d=%d id=%d: %d ids, %d distances, calcs/trees %d/%d; id-only query %d, %d/%d",
					d, id, len(withDist), len(dist), distCalcs, distTrees, len(buf), calcs, trees)
			}
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
// dataset, for query points on, near and off the data. A non-empty dst
// prefix must survive, and for a member point the ids must be the set
// EpsNeighborhoodInto returns.
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
				if calcs < len(got) {
					t.Fatalf("query %d: %d distance calcs for %d hits", k, calcs, len(got))
				}
				if !sortedEqual(got, bruteNbhd(s.pts, q, s.eps)) {
					t.Fatalf("query %d at %v: neighborhood diverges from brute force", k, q)
				}
				if k < len(memberIDs) {
					member, _, _ = ix.EpsNeighborhoodInto(q, memberIDs[k], member[:0])
					if !sortedEqual(member, got) {
						t.Fatalf("member %d: differs from EpsNeighborhoodInto", memberIDs[k])
					}
				}
			}
		})
	}
}

// FuzzNeighborhoodInto: a byte-derived dataset and query point, both
// quantised to ε/2 steps (so distances of exactly ε to a point and exactly
// 2ε to a centre are the common case), arbitrary-point query against brute
// force.
func FuzzNeighborhoodInto(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 4, 0, 1, 1, 255, 255, 8, 8, 8, 0})
	f.Add([]byte{1, 4, 0, 2, 4, 6, 8, 10, 3, 3, 250, 248})
	f.Add([]byte{3, 1, 1, 1, 7, 7, 7, 9, 9, 9, 7, 9, 7, 128, 0, 127, 5, 5, 5})
	f.Add([]byte{6, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 1 {
			return
		}
		dim := 1 + int(b[0])%6
		const eps = 0.75
		var pts []geom.Point
		for body := b[1:]; len(body) >= dim && len(pts) < 401; body = body[dim:] {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = float64(int8(body[j])) * eps / 2
			}
			pts = append(pts, p)
		}
		if len(pts) < 2 {
			return
		}
		q, pts := pts[0], pts[1:]
		ix := Build(pts, eps, 3, Options{SkipReachable: true})
		got, _ := ix.NeighborhoodInto(q, nil)
		if want := bruteNbhd(pts, q, eps); !sortedEqual(got, want) {
			t.Fatalf("q=%v over %d points: got %v want %v", q, len(pts), got, want)
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
		buf, _, _ = ix.EpsNeighborhoodInto(ix.Points.Point(id), id, buf[:0])
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
		buf, _, _ = ix.EpsNeighborhoodDistInto(ix.Points.Point(id), id, buf[:0], &dist)
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

// The Index's contiguous store must hold exactly the input points, in order,
// and every MC center view must alias its own row.
func TestIndexPointsStore(t *testing.T) {
	pts, ix := buildRandom(t, 73, 400, 4, 0.9, 5)
	if ix.Points.Len() != len(pts) {
		t.Fatalf("store holds %d of %d points", ix.Points.Len(), len(pts))
	}
	for i, p := range pts {
		if !ix.Points.Point(i).Equal(p) {
			t.Fatalf("row %d diverges from input point", i)
		}
	}
	for _, m := range views(ix) {
		if !m.Center.Equal(ix.Points.Point(m.CenterID)) {
			t.Fatalf("MC %d center diverges from its row", m.ID)
		}
	}
}

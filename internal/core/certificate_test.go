package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// neighborCount is |N_ε(p)| by the kernel over every point, p itself
// included.
func neighborCount(pts []geom.Point, p geom.Point, eps float64) int {
	n := 0
	for _, q := range pts {
		if geom.DistSq(p, q) < eps*eps {
			n++
		}
	}
	return n
}

// certified runs steps 1 and 3 at one worker over pts, whose first
// localCount points are local, and returns the points the MinPts-radius
// proved core: in step 1 every member but the centres, in step 3 those
// processPoint returned from without a query. Each r_k is held to a sort of
// its micro-cluster's distances first.
func certified(t *testing.T, pts []geom.Point, eps float64, minPts, localCount int) (step1, step3 []int) {
	t.Helper()
	ix := mc.Build(pts, eps, minPts, mc.Options{})
	r := newRun(ix, eps, minPts, localCount, Options{})
	r.preliminaryClusters()
	for k := 0; k < ix.NumMCs(); k++ {
		var d []float64
		for _, q := range ix.Members(k) {
			d = append(d, ix.CenterDist[q])
		}
		slices.Sort(d)
		want := math.Inf(1)
		if len(d) >= minPts {
			want = d[minPts-1]
		}
		if r.rk[k] != want {
			t.Fatalf("MC %d (%d members): r_k %v, sorted %v", k, len(d), r.rk[k], want)
		}
		if len(d) < minPts {
			continue
		}
		for _, q := range ix.Members(k) {
			if int(q) != ix.CenterID(k) && r.flags.get(int(q))&flagWndq != 0 {
				step1 = append(step1, int(q))
			}
		}
	}
	w := &r.workers[0]
	for i := 0; i < localCount; i++ {
		if r.flags.get(i)&flagWndq != 0 {
			continue
		}
		queries := w.queries
		r.processPoint(w, i)
		if w.queries == queries {
			if r.flags.get(i)&(flagCore|flagWndq) != flagCore|flagWndq {
				t.Fatalf("point %d: no query, flags %b", i, r.flags.get(i))
			}
			step3 = append(step3, i)
		}
	}
	return step1, step3
}

// fatCases are sets of fat micro-clusters at d = 2, 5 and 14, where step 1's
// MinPts-radius proves many members core.
func fatCases() []driverCase {
	return []driverCase{
		{"fat-2d", data.Blobs(3000, 2, 6, 0.4, 0.05, 1), 0.5, 8},
		{"fat-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6},
		{"fat-14d", data.Blobs(2000, 14, 4, 0.3, 0.05, 1), 2, 6},
	}
}

// TestMinPtsRadiusCertificate: every point a micro-cluster's MinPts-radius
// proves core (cut (g)) has MinPts points strictly within ε by the kernel, in
// step 1 and in step 3, on the conformance and scenario datasets and on fat
// micro-clusters at d = 2, 5 and 14, each as it is and with its last fifth
// playing the halo. Both steps must fire somewhere, step 1 on every fat set.
func TestMinPtsRadiusCertificate(t *testing.T) {
	fat := map[string]bool{}
	cases := driverCases()
	for _, c := range fatCases() {
		fat[c.name] = true
		cases = append(cases, c)
	}
	var total1, total3 int
	for _, c := range cases {
		for _, halo := range []int{0, len(c.pts) / 5} {
			t.Run(fmt.Sprintf("%s/halo=%d", c.name, halo), func(t *testing.T) {
				step1, step3 := certified(t, c.pts, c.eps, c.minPts, len(c.pts)-halo)
				for _, i := range append(step1, step3...) {
					if n := neighborCount(c.pts, c.pts[i], c.eps); n < c.minPts {
						t.Fatalf("point %d proven core with %d points within ε, MinPts %d", i, n, c.minPts)
					}
				}
				if fat[c.name] && len(step1) == 0 {
					t.Fatal("step 1 proved no point core by a MinPts-radius")
				}
				total1 += len(step1)
				total3 += len(step3)
			})
		}
	}
	if total1 == 0 || total3 == 0 {
		t.Fatalf("%d points proven in step 1, %d in step 3: a step never fires", total1, total3)
	}
}

// TestMinPtsRadiusSubsumesLemmas: step 1 proves every point the paper's
// query-free lemmas prove (§IV-B1) with the MinPts-radius and the centre
// marking alone. Lemma 1: in a micro-cluster with at least MinPts members
// strictly within ε/2 of the centre, the centre itself counting, each of them
// is core (the paper leaves the centre out of the count; this is the
// stronger form). Lemma 2: the centre
// of a micro-cluster with at least MinPts members is core. "Within ε/2" is
// counted here by the kernel, not read from the index. It runs on the driver
// datasets and the fat sets, each as it is and with its last fifth playing
// the halo, at 1, 2 and 4 workers, and Lemma 1 must apply somewhere.
func TestMinPtsRadiusSubsumesLemmas(t *testing.T) {
	lemma1 := 0
	for _, c := range append(driverCases(), fatCases()...) {
		half2 := c.eps / 2 * (c.eps / 2)
		for _, halo := range []int{0, len(c.pts) / 5} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/halo=%d/workers=%d", c.name, halo, workers), func(t *testing.T) {
					ix := mc.Build(c.pts, c.eps, c.minPts, mc.Options{Workers: workers})
					r := newRun(ix, c.eps, c.minPts, len(c.pts)-halo, Options{Workers: workers})
					r.preliminaryClusters()
					for k := 0; k < ix.NumMCs(); k++ {
						members, center := ix.Members(k), ix.CenterID(k)
						if len(members) >= c.minPts && r.flags.get(center)&flagWndq == 0 {
							t.Fatalf("centre %d of MC %d (%d members) not proven core", center, k, len(members))
						}
						var inner []int32
						for _, q := range members {
							if geom.DistSq(c.pts[q], c.pts[center]) < half2 {
								inner = append(inner, q)
							}
						}
						if len(inner) < c.minPts {
							continue
						}
						lemma1++
						for _, q := range inner {
							if r.flags.get(int(q))&flagWndq == 0 {
								t.Fatalf("point %d, in MC %d's inner circle of %d, not proven core", q, k, len(inner))
							}
						}
					}
				})
			}
		}
	}
	if lemma1 == 0 {
		t.Fatal("no micro-cluster had MinPts members within ε/2: Lemma 1 never applied")
	}
}

// TestMinPtsRadiusBoundaries: four micro-clusters on a line, ε = 1, MinPts 4,
// where one point p each sits where the certificate must not fire — neither in
// step 1 nor at the head of its query. In the first d(p, cZ) + r_k(Z) is
// exactly ε (0.75 + 0.25); in the second it is ε − 2⁻³¹, inside the δ band; in
// the third it is the margin ε(1−δ) itself, to the last bit (p sits at
// ε(1−δ) − 0.25, which the kernel and its root give back exactly); in the
// fourth only MinPts−1 members (the centre, p and its copy) lie within ε/4 of
// the centre and the MinPts-th is 0.99 out, so r_k is 0.99, and p — whose
// ε-ball holds just those three — is not core.
func TestMinPtsRadiusBoundaries(t *testing.T) {
	const eps, minPts = 1.0, 4
	for _, dim := range []int{2, 5, 14} {
		var pts []geom.Point
		var ps []int
		for k, c := range []struct {
			members []float64
			p       float64
		}{
			{[]float64{0.25, 0.25, 0.25}, 0.75},
			{[]float64{0.25, 0.25, 0.25}, 0.75 - 0x1p-31},
			{[]float64{0.25, 0.25, 0.25}, eps*(1-pruneSlack) - 0.25},
			{[]float64{0.25, -0.99}, 0.25},
		} {
			y := 4 * float64(k)
			pts = append(pts, along(dim, 0, y))
			for _, x := range c.members {
				pts = append(pts, along(dim, x, y))
			}
			ps = append(ps, len(pts))
			pts = append(pts, along(dim, c.p, y))
		}
		r := newRun(mc.Build(pts, eps, minPts, mc.Options{}), eps, minPts, len(pts), Options{})
		r.preliminaryClusters()
		if r.ix.NumMCs() != len(ps) {
			t.Fatalf("d=%d: %d micro-clusters, want %d", dim, r.ix.NumMCs(), len(ps))
		}
		for k, p := range ps {
			z := int(r.ix.PointMC[p])
			if len(r.ix.Members(z)) < minPts || r.flags.get(p)&flagWndq != 0 {
				t.Fatalf("d=%d: set %d: p in a micro-cluster of %d members, proven core in step 1 (d + r_k = %v)",
					dim, k, len(r.ix.Members(z)), r.ix.CenterDist[p]+r.rk[z])
			}
			w := &r.workers[0]
			queries := w.queries
			r.processPoint(w, p)
			if w.queries == queries {
				t.Fatalf("d=%d: set %d: p proven core in step 3 (d + r_k = %v)", dim, k, r.ix.CenterDist[p]+r.rk[z])
			}
		}
		if z := int(r.ix.PointMC[ps[2]]); r.ix.CenterDist[ps[2]]+r.rk[z] != r.near {
			t.Fatalf("d=%d: the third p is at %v, the margin at %v", dim, r.ix.CenterDist[ps[2]]+r.rk[z], r.near)
		}
		if n := neighborCount(pts, pts[ps[3]], eps); n != minPts-1 {
			t.Fatalf("d=%d: the fourth p has %d points within ε, want %d", dim, n, minPts-1)
		}
		for _, workers := range []int{1, 2, 4} {
			requireExact(t, fmt.Sprintf("d=%d workers=%d", dim, workers), pts, eps, minPts, Options{Workers: workers})
		}
	}
}

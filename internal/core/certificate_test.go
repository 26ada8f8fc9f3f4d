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
// proved core: in step 1 those beyond Lemmas 1 and 2 (neither a centre nor in
// a DMC's inner circle), in step 3 those processPoint returned from without a
// query. Each r_k is held to a sort of its micro-cluster's distances first.
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
		if ix.Kind(k) != mc.SMC {
			want = d[minPts-1]
		}
		if r.rk[k] != want {
			t.Fatalf("MC %d (%v, %d members): r_k %v, sorted %v", k, ix.Kind(k), len(d), r.rk[k], want)
		}
		if ix.Kind(k) == mc.SMC {
			continue
		}
		for _, q := range ix.Members(k) {
			lemma := int(q) == ix.CenterID(k) || ix.Kind(k) == mc.DMC && slices.Contains(ix.InnerIDs(k), q)
			if !lemma && r.flags.get(int(q))&flagWndq != 0 {
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

// TestMinPtsRadiusCertificate: every point a micro-cluster's MinPts-radius
// proves core (cut (g)) has MinPts points strictly within ε by the kernel, in
// step 1 and in step 3, on the conformance and scenario datasets and on fat
// micro-clusters at d = 2, 5 and 14, each as it is and with its last fifth
// playing the halo. Both steps must fire somewhere, step 1 on every fat set.
func TestMinPtsRadiusCertificate(t *testing.T) {
	fat := map[string]bool{}
	cases := driverCases()
	for _, c := range []driverCase{
		{"fat-2d", data.Blobs(3000, 2, 6, 0.4, 0.05, 1), 0.5, 8},
		{"fat-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6},
		{"fat-14d", data.Blobs(2000, 14, 4, 0.3, 0.05, 1), 2, 6},
	} {
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
			if r.ix.Kind(z) == mc.SMC || r.flags.get(p)&flagWndq != 0 {
				t.Fatalf("d=%d: set %d: p in a %v, proven core in step 1 (d + r_k = %v)",
					dim, k, r.ix.Kind(z), r.ix.CenterDist[p]+r.rk[z])
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

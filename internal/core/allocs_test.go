package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// A steady-state core-point expansion — ε-query, inner-circle pass, unions —
// must perform zero heap allocations once the run's scratch buffers have
// warmed: this is the hot loop of Algorithm 6 and the reason every worker
// carries reusable nbhd/inner arenas instead of per-query slices. Two shapes:
// thin micro-clusters, where every reachable one gets the full ε walk, and fat
// ones, where most are settled and walked at ε/2 with their centre appended.
func TestProcessPointZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	uniform := make([]geom.Point, 3000)
	for i := range uniform {
		uniform[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	for _, c := range []struct {
		name    string
		pts     []geom.Point
		eps     float64
		minPts  int
		settled bool // the queries must take the short walk
	}{
		{"thin-3d", uniform, 0.8, 5, false},
		{"fat-5d", data.HouseholdLike(8000, 5, 1), 0.25, 6, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ix := mc.Build(c.pts, c.eps, c.minPts, mc.Options{})
			r := newRun(ix, c.eps, c.minPts, len(c.pts), Options{})
			r.preliminaryClusters()
			r.processRemaining() // warms the scratch buffers and settles the state

			var dense []int // cores that were proven by their query
			short := 0      // of which, those with a settled micro-cluster's centre within ε
			for i := range c.pts {
				if r.flags.get(i)&(flagCore|flagWndq) != flagCore {
					continue
				}
				dense = append(dense, i)
				for _, z := range ix.Reach(int(ix.PointMC[i])) {
					if r.mcWhole[z] && geom.DistSq(c.pts[i], ix.Center(int(z))) < c.eps*c.eps {
						short++
						break
					}
				}
			}
			if len(dense) == 0 {
				t.Fatal("test dataset produced no queried core points")
			}
			if c.settled && short < len(dense)/2 {
				t.Fatalf("%d of %d queried cores settle a micro-cluster; the short walk is not under the gate", short, len(dense))
			}
			k := 0
			allocs := testing.AllocsPerRun(200, func() {
				r.processPoint(&r.workers[0], dense[k%len(dense)])
				k++
			})
			if allocs != 0 {
				t.Fatalf("processPoint allocated %.1f times per core expansion; want 0", allocs)
			}
		})
	}
}

// TestNonCoreArenaAllocBudget: step 3 stores every non-core point's
// ε-neighborhood for the border pass in one arena per worker, behind an
// 8-byte entry, so on a noise-heavy set that storage costs a handful of
// amortised growths and bytes in proportion to the arena — not an
// allocation, and a slice header, per non-core point.
func TestNonCoreArenaAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	ix := mc.Build(pts, 0.4, 5, mc.Options{})
	r := newRun(ix, 0.4, 5, len(pts), Options{})
	r.preliminaryClusters()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.processRemaining()
	runtime.ReadMemStats(&after)

	w := &r.workers[0]
	if len(w.nonCore) < len(pts)/2 {
		t.Fatalf("%d non-core points of %d: the set is not noise-heavy", len(w.nonCore), len(pts))
	}
	arena := uint64(8*len(w.nonCore) + 4*len(w.nonCoreIDs))
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 100 {
		t.Errorf("step 3 made %d allocations for %d non-core points; want a few growths (≤ 100)", mallocs, len(w.nonCore))
	}
	// Past a few hundred elements append grows a slice by a quarter, so its
	// growths add up to about five times its final size.
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 6*arena+64<<10 {
		t.Errorf("step 3 allocated %d bytes for %d non-core points (%d bytes of entries and ids); want ≤ 6× that + 64 KiB", bytes, len(w.nonCore), arena)
	}
	t.Logf("%d non-core points, %d bytes of entries and ids, %d allocated in %d allocations", len(w.nonCore), arena, after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
}

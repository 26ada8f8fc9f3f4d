package core

import (
	"math/rand"
	"testing"

	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
)

// A steady-state core-point expansion — ε-query, inner-circle pass, unions —
// must perform zero heap allocations once the run's scratch buffers have
// warmed: this is the hot loop of Algorithm 6 and the reason every worker
// carries reusable nbhd/inner arenas instead of per-query slices.
func TestProcessPointZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	eps, minPts := 0.8, 5
	ix := mc.Build(pts, eps, minPts, mc.Options{})
	r := newRun(ix, eps, minPts, len(pts), Options{})
	r.preliminaryClusters()
	r.processRemaining() // warms the scratch buffers and settles the state

	var dense []int // cores that were proven by their query
	for i := range pts {
		if r.flags.get(i)&(flagCore|flagWndq) == flagCore {
			dense = append(dense, i)
		}
	}
	if len(dense) == 0 {
		t.Fatal("test dataset produced no queried core points")
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		r.processPoint(&r.workers[0], dense[k%len(dense)])
		k++
	})
	if allocs != 0 {
		t.Fatalf("processPoint allocated %.1f times per core expansion; want 0", allocs)
	}
}

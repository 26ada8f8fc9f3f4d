package stream

import (
	"math"
	"testing"
	"time"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// BenchmarkSnapshot measures Snapshot alone on damped windows of about
// 20 000 points: the stream ingests 80 000 arrivals under a horizon of the
// last quarter, as the harness's stream workload does, and every iteration
// snapshots that final window. galaxy3d and geodrift2d are windows the auto
// rule sends to the grid, household5d one it sends to the μR-tree engine.
func BenchmarkSnapshot(b *testing.B) {
	const n = 80000
	for _, bc := range []struct {
		name   string
		gen    func() []geom.Point
		eps    float64
		minPts int
	}{
		{"galaxy3d", func() []geom.Point { return data.GalaxyLike(n, 3, 5) }, 2, 5},
		{"geodrift2d", func() []geom.Point { return data.GeoTraceDrift(n, 1) }, 0.5, 5},
		{"household5d", func() []geom.Point { return data.HouseholdLike(n, 5, 1) }, 0.25, 6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pts := bc.gen()
			c, err := New(len(pts[0]), bc.eps, bc.minPts, Options{Lambda: math.Ln10 / (n / 4)})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				if err := c.Add(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				c.Snapshot()
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}

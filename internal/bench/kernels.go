package bench

import (
	"fmt"
	"math/rand"
	"time"

	"mudbscan/internal/geom"
	"mudbscan/internal/rtree"
)

// Kernels measures the end-to-end R-tree ε-query rate of the allocation-free
// SphereInto against the callback API. The leaf scan underneath it is a
// row of the repository benchmark (geom.scan_ns_per_dist).
func Kernels(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "-- R-tree ε-query: callback Sphere vs allocation-free SphereInto --")
	t := newTable(cfg.Out)
	t.row("d", "points", "callback q/s", "into q/s", "speedup")
	qn := int(50_000 * cfg.Scale)
	if qn < 1_000 {
		qn = 1_000
	}
	for _, d := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(10 + d)))
		pts := make([]geom.Point, qn)
		for i := range pts {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = rng.Float64() * 100
			}
			pts[i] = p
		}
		tree := rtree.BulkLoad(d, 0, pts, nil)
		const queries = 2_000
		buf := make([]int, 0, 4096)
		cbTime := timed(func() {
			for q := 0; q < queries; q++ {
				buf = buf[:0]
				tree.Sphere(pts[q%len(pts)], 3, true, func(id int, _ geom.Point) {
					buf = append(buf, id)
				})
			}
		})
		intoTime := timed(func() {
			for q := 0; q < queries; q++ {
				buf, _ = tree.SphereInto(pts[q%len(pts)], 3, true, buf[:0])
			}
		})
		t.row(
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", qn),
			rate(queries, cbTime),
			rate(queries, intoTime),
			fmt.Sprintf("%.2fx", cbTime.Seconds()/intoTime.Seconds()),
		)
	}
	t.flush()
	return nil
}

func rate(ops int, d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(ops)/d.Seconds())
}

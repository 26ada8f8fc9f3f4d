package data

import (
	"math"
	"math/rand"

	"mudbscan/internal/geom"
)

// Scenario is one entry of the scenario corpus: a deterministic dataset in a
// meaningful *arrival order* plus the DBSCAN parameters it is clustered
// with. Where the conformance table (ConformanceCases) pins small
// regime-divergence fixtures, the scenarios are production-shaped workloads:
// each couples a spatial distribution to an adversarial arrival pattern, so
// they exercise both the batch engines (which must agree on the spatial
// structure) and the streaming tier (which additionally sees the arrival
// order). benchtab's "scenarios" experiment measures every engine on every
// scenario, and the stream conformance suite replays each scenario in its
// arrival order.
type Scenario struct {
	Name string
	// Pts is the dataset in arrival order — the order a stream ingests it.
	Pts    []geom.Point
	Eps    float64
	MinPts int
	// Arrival describes the arrival pattern in one line.
	Arrival string
}

// Scenarios returns the pinned scenario corpus. Datasets are rebuilt from
// their seeds on every call; callers may mutate the returned points freely.
func Scenarios() []Scenario {
	return []Scenario{
		{"geo-drift", GeoTraceDrift(2400, 41), 0.5, 5,
			"time-ordered drifting trace alternating travel and dwell"},
		{"highdim-embed", EmbeddingClusters(1500, 16, 6, 42), 0.5, 5,
			"round-robin interleave over embedding clusters"},
		{"all-border-ties", AllBorderTieRails(24), 1.25, 4,
			"rail-interleaved columns; every rail centers on an exact-ε tie"},
		{"bursty-arrival", BurstyBlobs(2000, 43), 0.35, 5,
			"cluster-by-cluster bursts, then a uniform noise flood"},
	}
}

// GeoTraceDrift generates a 2-D GPS-trace analogue in time order: a vehicle
// alternates *travel* legs (a heading random walk at a step length above ε,
// so consecutive fixes are not neighbors — noise) with *dwell* stops (tight
// jitter around the stop position — dense clusters). The trace drifts
// monotonically across the plane, so under a damped window the early stops
// expire while a landmark window accumulates every stop it ever made.
func GeoTraceDrift(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	x, y := 0.0, 0.0
	heading := rng.Float64() * 2 * math.Pi
	for len(pts) < n {
		if rng.Float64() < 0.3 {
			// Dwell: emit a tight cloud around the stop position.
			stay := 30 + rng.Intn(60)
			for s := 0; s < stay && len(pts) < n; s++ {
				pts = append(pts, geom.Point{
					x + rng.NormFloat64()*0.06,
					y + rng.NormFloat64()*0.06,
				})
			}
		}
		// Travel: jittered fixes spaced beyond ε, drifting eastward.
		legLen := 5 + rng.Intn(15)
		for s := 0; s < legLen && len(pts) < n; s++ {
			heading += rng.NormFloat64() * 0.4
			x += math.Cos(heading)*0.8 + 0.4 // net drift keeps the trace moving
			y += math.Sin(heading) * 0.8
			pts = append(pts, geom.Point{
				x + rng.NormFloat64()*0.03,
				y + rng.NormFloat64()*0.03,
			})
		}
	}
	return pts
}

// EmbeddingClusters generates unit-normalized dim-dimensional embedding
// vectors: k random directions serve as concept centroids, points are small
// Gaussian perturbations re-normalized onto the unit sphere, and ~3% are
// isotropic random directions (off-topic noise). Arrival round-robins over
// the clusters — the interleave a production feed of mixed topics produces —
// so no prefix of the stream is single-cluster.
func EmbeddingClusters(n, dim, k int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	unit := func(p geom.Point) geom.Point {
		norm := 0.0
		for _, v := range p {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for j := range p {
			p[j] /= norm
		}
		return p
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		c := make(geom.Point, dim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		centers[i] = unit(c)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		if rng.Float64() < 0.03 {
			for j := range p {
				p[j] = rng.NormFloat64()
			}
		} else {
			c := centers[i%k] // round-robin interleave
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*0.03
			}
		}
		pts[i] = unit(p)
	}
	return pts
}

// AllBorderTieRails stacks `rails` copies of the BorderTieCase construction
// as horizontal rails of a 2-D dataset: rail r lives at y = 10r (rails never
// interact at eps = 1.25), and on each rail the middle point sits exactly
// 1.0 from the nearest core of both flanking clusters — a border that may
// legitimately join either side — while the 0.75↔2.0 and 2.0↔3.25 pairs sit
// at exactly ε and must be excluded by the strict-< neighborhood everywhere.
// All coordinates are multiples of 0.25, so every distance is exact in
// binary floating point. Arrival is column-interleaved across rails (all
// rails' first points, then all second points, …), so every arrival lands in
// a different ε-cell than its predecessor: arrival order and spatial order
// share nothing.
func AllBorderTieRails(rails int) []geom.Point {
	xs := []float64{0, 0.25, 0.5, 0.75, 1.0, 3.0, 3.25, 3.5, 3.75, 4.0, 2.0}
	pts := make([]geom.Point, 0, rails*len(xs))
	for col := range xs {
		for r := 0; r < rails; r++ {
			pts = append(pts, geom.Point{xs[col], 10 * float64(r)})
		}
	}
	return pts
}

// BurstyBlobs generates k = 4 well-separated 2-D Gaussian blobs delivered as
// consecutive bursts (all of blob 0, then all of blob 1, …) followed by a
// uniform noise flood over the whole box — the arrival pattern of a system
// that drains one partition at a time. A streaming ingester sees wildly
// non-stationary cell pressure; the final clustering must nonetheless match
// the batch engines exactly.
func BurstyBlobs(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{5, 5}, {15, 5}, {5, 15}, {15, 15}}
	noise := n / 10
	perBlob := (n - noise) / len(centers)
	pts := make([]geom.Point, 0, n)
	for _, c := range centers {
		for i := 0; i < perBlob; i++ {
			pts = append(pts, geom.Point{
				c[0] + rng.NormFloat64()*0.3,
				c[1] + rng.NormFloat64()*0.3,
			})
		}
	}
	for len(pts) < n {
		pts = append(pts, geom.Point{rng.Float64() * 20, rng.Float64() * 20})
	}
	return pts
}

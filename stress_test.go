package mudbscan

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
	"mudbscan/internal/shared"
)

// TestExactnessStressSweep drives every exact algorithm against brute-force
// DBSCAN across randomized mixtures, dimensions, parameters, worker counts
// and rank counts. The default sweep keeps CI fast; set MUDBSCAN_STRESS=1
// (or run with -timeout accordingly) for the full 400-configuration sweep
// used during development.
func TestExactnessStressSweep(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	if os.Getenv("MUDBSCAN_STRESS") != "" {
		iters = 400
	}
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < iters; iter++ {
		n := 50 + rng.Intn(400)
		d := 1 + rng.Intn(4)
		pts := data.Blobs(n, d, 1+rng.Intn(4), 0.15+rng.Float64()*0.5, rng.Float64()*0.5, int64(iter))
		eps := 0.25 + rng.Float64()*0.7
		minPts := 2 + rng.Intn(6)
		p := []int{1, 2, 4, 8, 16}[rng.Intn(5)]

		want, _ := dbscan.Brute(pts, eps, minPts)

		seq, _ := core.Run(pts, eps, minPts, core.Options{})
		if !reflect.DeepEqual(want, seq) {
			t.Fatalf("iter %d seq (n=%d d=%d eps=%g mp=%d): not brute force's result (%v)", iter, n, d, eps, minPts, clustering.Equivalent(want, seq))
		}

		got, _, err := dist.MuDBSCAND(pts, eps, minPts, p, dist.Options{Seed: int64(iter)})
		if err != nil {
			t.Fatalf("iter %d dist err: %v", iter, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d dist (n=%d d=%d eps=%g mp=%d p=%d): not brute force's result (%v)", iter, n, d, eps, minPts, p, clustering.Equivalent(want, got))
		}

		if iter%5 == 0 {
			par, _ := shared.Run(pts, eps, minPts, shared.Options{Workers: 1 + rng.Intn(8)})
			if !reflect.DeepEqual(want, par) {
				t.Fatalf("iter %d shared: not brute force's result (%v)", iter, clustering.Equivalent(want, par))
			}
		}
		if iter%10 == 0 {
			for name, algo := range map[string]func([]geom.Point, float64, int, int, dist.Options) (*clustering.Result, *dist.Stats, error){
				"PDSDBSCAN-D": dist.PDSDBSCAND, "GridDBSCAN-D": dist.GridDBSCAND, "HPDBSCAN": dist.HPDBSCAN,
			} {
				g2, _, err := algo(pts, eps, minPts, 4, dist.Options{Seed: int64(iter)})
				if err == dist.ErrDistGridMemory {
					continue
				}
				if err != nil {
					t.Fatalf("iter %d %s err: %v", iter, name, err)
				}
				if err := clustering.Equivalent(want, g2); err != nil {
					t.Fatalf("iter %d %s: %v", iter, name, err)
				}
			}
		}
	}
}

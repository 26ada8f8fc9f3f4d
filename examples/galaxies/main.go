// Galaxies: find galaxy groups in a synthetic sky catalog with μDBSCAN-D,
// the distributed mode — the workload the paper's evaluation centers on
// (Millennium-Run catalogs, §VI).
//
// A catalog of "galaxies" is generated as gravitational halos with
// power-law masses, Gaussian satellite clouds and a uniform field-galaxy
// background. DBSCAN then recovers the halos as clusters and the field
// galaxies as noise, and the exact distributed mode demonstrates that the
// result is identical to the sequential run while the work is split over
// simulated ranks.
//
// Run with:
//
//	go run ./examples/galaxies [-n 100000] [-ranks 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"

	"mudbscan"
)

func main() {
	n := flag.Int("n", 100000, "number of galaxies")
	ranks := flag.Int("ranks", 8, "simulated compute ranks (power of two)")
	flag.Parse()
	if err := run(os.Stdout, *n, *ranks); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, n, ranks int) error {
	catalog := makeCatalog(n, 42)
	const (
		eps    = 1.2 // linking length, same role as FoF halo finders'
		minPts = 5
	)

	fmt.Fprintf(w, "catalog: %d galaxies in 3-D, eps=%.2f MinPts=%d\n", len(catalog), eps, minPts)

	// Sequential reference.
	seq, seqStats, err := mudbscan.ClusterWithStats(catalog, eps, minPts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sequential μDBSCAN: %d groups, %d field galaxies (noise), %.1f%% queries saved\n",
		seq.NumClusters, seq.NumNoise(), seqStats.QuerySavedPct())

	// Distributed run over simulated ranks — the ranks really run
	// concurrently (see WithSerialSimulation for the timing-isolation mode).
	distRes, distStats, err := mudbscan.ClusterDistributed(catalog, eps, minPts, ranks,
		mudbscan.WithSampleSize(512), mudbscan.WithSeed(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "μDBSCAN-D on %d ranks: %d groups, halo copies exchanged: %d, comm: %d KiB, wall-clock: %v\n",
		distStats.Ranks, distRes.NumClusters, distStats.HaloPoints,
		distStats.Comm.TotalBytes()/1024, distStats.WallClock)
	if distRes.NumClusters != seq.NumClusters {
		return fmt.Errorf("exactness violated: %d vs %d groups", distRes.NumClusters, seq.NumClusters)
	}
	fmt.Fprintln(w, "distributed result matches the sequential clustering exactly")

	// Rank the richest groups, like a halo mass function.
	sizes := make(map[int]int)
	for _, l := range distRes.Labels {
		if l != mudbscan.Noise {
			sizes[l]++
		}
	}
	type group struct{ id, size int }
	groups := make([]group, 0, len(sizes))
	for id, size := range sizes {
		groups = append(groups, group{id, size})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].size != groups[j].size {
			return groups[i].size > groups[j].size
		}
		return groups[i].id < groups[j].id
	})
	fmt.Fprintln(w, "richest groups:")
	for i, g := range groups {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "  group %3d: %6d members\n", g.id, g.size)
	}
	return nil
}

// makeCatalog synthesizes the galaxy catalog: halos with power-law masses,
// satellites, and a field-galaxy background.
func makeCatalog(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	const space = 100.0
	numHalos := 1 + n/2500
	centers := make([][3]float64, numHalos)
	masses := make([]float64, numHalos)
	total := 0.0
	for i := range centers {
		centers[i] = [3]float64{rng.Float64() * space, rng.Float64() * space, rng.Float64() * space}
		masses[i] = math.Pow(rng.Float64(), -0.7)
		total += masses[i]
	}
	catalog := make([][]float64, n)
	for i := range catalog {
		if rng.Float64() < 0.1 {
			catalog[i] = []float64{rng.Float64() * space, rng.Float64() * space, rng.Float64() * space}
			continue
		}
		target := rng.Float64() * total
		h, acc := 0, masses[0]
		for acc < target && h < numHalos-1 {
			h++
			acc += masses[h]
		}
		scale := 0.3 + 0.6*math.Cbrt(masses[h])
		catalog[i] = []float64{
			centers[h][0] + rng.NormFloat64()*scale,
			centers[h][1] + rng.NormFloat64()*scale,
			centers[h][2] + rng.NormFloat64()*scale,
		}
	}
	return catalog
}

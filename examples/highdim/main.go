// Highdim: clustering high-dimensional bio-assay vectors on all cores —
// the KDD Cup 2004 Bio workload (KDDB145K, 14–74 dimensions) from the
// paper's evaluation, where grid-based DBSCAN variants collapse under the
// exponential cell count but the micro-cluster approach keeps working.
//
// The example clusters 30-dimensional feature vectors with the
// shared-memory parallel mode and verifies the result against the
// sequential mode.
//
// Run with:
//
//	go run ./examples/highdim [-n 20000] [-dim 30]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"mudbscan"
)

func main() {
	n := flag.Int("n", 20000, "number of feature vectors")
	dim := flag.Int("dim", 30, "dimensionality")
	flag.Parse()
	if err := run(os.Stdout, *n, *dim); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, n, dim int) error {
	vectors, trueLabel := makeAssays(n, dim, 11)
	eps := 220 * math.Sqrt(float64(dim)/14)
	const minPts = 5
	fmt.Fprintf(w, "assay vectors: %d x %dD, eps=%.0f MinPts=%d\n", len(vectors), dim, eps, minPts)

	start := time.Now()
	par, stats, err := mudbscan.ClusterWithStats(vectors, eps, minPts, mudbscan.WithEngine(mudbscan.EngineShared))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parallel μDBSCAN (%d workers): %v, %d clusters, %d noise, %.1f%% queries saved\n",
		stats.Workers, time.Since(start).Round(time.Millisecond),
		par.NumClusters, par.NumNoise(), 100*float64(stats.QueriesSaved)/float64(len(vectors)))

	start = time.Now()
	seq, _, err := mudbscan.ClusterWithStats(vectors, eps, minPts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sequential μDBSCAN: %v, %d clusters (parallel result is exact: %v)\n",
		time.Since(start).Round(time.Millisecond), seq.NumClusters,
		par.NumClusters == seq.NumClusters)

	// Measure purity of the recovered clusters against the generating
	// assay families.
	votes := make(map[int]map[int]int)
	for i, l := range par.Labels {
		if l == mudbscan.Noise {
			continue
		}
		if votes[l] == nil {
			votes[l] = make(map[int]int)
		}
		votes[l][trueLabel[i]]++
	}
	agree, total := 0, 0
	for _, v := range votes {
		best := 0
		for _, c := range v {
			total += c
			if c > best {
				best = c
			}
		}
		agree += best
	}
	if total > 0 {
		fmt.Fprintf(w, "cluster purity vs generating families: %.1f%%\n", 100*float64(agree)/float64(total))
	}
	return nil
}

// makeAssays builds dim-dimensional vectors from a few anisotropic
// families plus uniform junk, returning the vectors and their true family
// (-1 for junk).
func makeAssays(n, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	const families = 5
	centers := make([][]float64, families)
	scales := make([][]float64, families)
	for f := range centers {
		c := make([]float64, dim)
		s := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64() * 1000
			s[j] = 10 + rng.Float64()*25
		}
		centers[f] = c
		scales[f] = s
	}
	vectors := make([][]float64, n)
	labels := make([]int, n)
	for i := range vectors {
		v := make([]float64, dim)
		if rng.Float64() < 0.06 {
			for j := range v {
				v[j] = rng.Float64() * 1000
			}
			labels[i] = -1
		} else {
			f := rng.Intn(families)
			for j := range v {
				v[j] = centers[f][j] + rng.NormFloat64()*scales[f][j]
			}
			labels[i] = f
		}
		vectors[i] = v
	}
	return vectors, labels
}

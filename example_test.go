package mudbscan_test

import (
	"fmt"

	"mudbscan"
)

// Cluster two tight groups of points and an outlier.
func ExampleCluster() {
	points := [][]float64{
		{1.0, 1.0}, {1.1, 1.0}, {1.0, 1.1},
		{9.0, 9.0}, {9.1, 9.0}, {9.0, 9.1},
		{5.0, 5.0},
	}
	result, err := mudbscan.Cluster(points, 0.5, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", result.NumClusters)
	fmt.Println("labels:", result.Labels)
	// Output:
	// clusters: 2
	// labels: [0 0 0 1 1 1 -1]
}

// The distributed mode produces exactly the same clustering.
func ExampleClusterDistributed() {
	points := [][]float64{
		{1.0, 1.0}, {1.1, 1.0}, {1.0, 1.1},
		{9.0, 9.0}, {9.1, 9.0}, {9.0, 9.1},
		{5.0, 5.0},
	}
	result, stats, err := mudbscan.ClusterDistributed(points, 0.5, 3, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", result.NumClusters, "ranks:", stats.Ranks)
	// Output:
	// clusters: 2 ranks: 2
}

// Inspect how many ε-neighborhood queries the micro-clusters saved.
func ExampleClusterWithStats() {
	points := make([][]float64, 0, 100)
	for i := 0; i < 100; i++ {
		points = append(points, []float64{float64(i%10) * 0.01, float64(i/10) * 0.01})
	}
	_, stats, err := mudbscan.ClusterWithStats(points, 1.0, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("micro-clusters:", stats.NumMCs)
	fmt.Println("queries:", stats.Queries)
	// Output:
	// micro-clusters: 1
	// queries: 0
}

// Cluster a row-major block in place: point i is coords[2i : 2i+2]. The
// block is the μR-tree's point store, not copied, and it is left unchanged.
func ExampleClusterFlat() {
	coords := []float64{
		1.0, 1.0, 1.1, 1.0, 1.0, 1.1,
		9.0, 9.0, 9.1, 9.0, 9.0, 9.1,
		5.0, 5.0,
	}
	result, stats, err := mudbscan.ClusterFlat(coords, 2, 0.5, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("labels:", result.Labels)
	fmt.Println("micro-clusters:", stats.NumMCs)
	// Output:
	// labels: [0 0 0 1 1 1 -1]
	// micro-clusters: 3
}

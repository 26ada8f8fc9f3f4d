package mudbscan

import (
	"math"
	"reflect"
	"testing"

	"mudbscan/internal/data"
)

// TestClusterStreamMatchesCluster pins the public contract: under the
// default landmark window ClusterStream is Cluster, byte for byte.
func TestClusterStreamMatchesCluster(t *testing.T) {
	for _, sc := range data.Scenarios() {
		rows := toRows(sc.Pts)
		want, err := Cluster(rows, sc.Eps, sc.MinPts)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := ClusterStream(rows, sc.Eps, sc.MinPts)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: ClusterStream differs from Cluster", sc.Name)
		}
	}
}

// TestClusterStreamDampedForgets pins the damped mapping: rows that expired
// before the end of the stream come back as noise with Core false, and the
// surviving suffix carries an exact clustering of the final window.
func TestClusterStreamDampedForgets(t *testing.T) {
	// Two well-separated phases: an early blob, then a late blob. With a
	// short horizon the early blob has fully expired by the end.
	var rows [][]float64
	for i := 0; i < 200; i++ {
		rows = append(rows, []float64{float64(i%5) * 0.1, 0})
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, []float64{50 + float64(i%5)*0.1, 0})
	}
	// lambda 0.1, pruneBelow 0.1: horizon = ln(10)/0.1 ≈ 23 insertions.
	got, err := ClusterStream(rows, 0.5, 5, WithStreamWindow(0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 1 {
		t.Fatalf("clusters=%d, want only the live late blob", got.NumClusters)
	}
	for i := 0; i < 200; i++ {
		if got.Labels[i] != Noise || got.Core[i] {
			t.Fatalf("expired row %d: label=%d core=%v, want noise/false", i, got.Labels[i], got.Core[i])
		}
	}
	live := 0
	for i := 200; i < 400; i++ {
		if got.Labels[i] != Noise {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no live rows clustered in the final window")
	}
}

// TestClusterStreamValidation walks the error surface shared with the other
// entry points plus the stream-specific window knobs.
func TestClusterStreamValidation(t *testing.T) {
	rows := [][]float64{{0, 0}, {0.1, 0.1}, {0.2, 0.2}}
	if _, err := ClusterStream(rows, -1, 3); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := ClusterStream([][]float64{{0, 0}, {math.NaN(), 1}}, 0.5, 3); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if _, err := ClusterStream([][]float64{{0, 0}, {1}}, 0.5, 3); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := ClusterStream(rows, 0.5, 3, WithStreamWindow(0.1, 2)); err == nil {
		t.Fatal("pruneBelow outside (0,1) accepted")
	}
	if _, err := ClusterStream(rows, 0.5, 3, WithStreamWindow(-1, 0)); err == nil {
		t.Fatal("negative lambda accepted")
	}
	empty, err := ClusterStream(nil, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Cluster(nil, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, empty) {
		t.Fatal("empty ClusterStream differs from empty Cluster")
	}
}

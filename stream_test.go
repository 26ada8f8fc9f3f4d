package mudbscan

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// TestClusterStreamMatchesCluster pins the public contract: under the
// default landmark window ClusterStream is Cluster under EngineAuto at one
// worker, byte for byte — and brute force, byte for byte, wherever auto
// picks the grid.
func TestClusterStreamMatchesCluster(t *testing.T) {
	for _, sc := range data.Scenarios() {
		rows := toRows(sc.Pts)
		want, err := Cluster(rows, sc.Eps, sc.MinPts, WithEngine(EngineAuto), WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if ChooseEngine(rows, sc.Eps, sc.MinPts) == EngineCell {
			brute, _ := dbscan.Brute(sc.Pts, sc.Eps, sc.MinPts)
			if !reflect.DeepEqual(brute, want) {
				t.Fatalf("%s: grid-routed auto run differs from brute force", sc.Name)
			}
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

// TestStreamSnapshotIsAutoBatch pins the streaming tier's contract: every
// snapshot, landmark or damped, taken at any point of the stream, is
// byte-for-byte Cluster of the window's rows under EngineAuto, and brute
// force's answer on the window. The corpus is the conformance table and the
// scenarios, plus the two border-tie sets zero-padded to d = 3 and d = 8,
// whose borders an engine with another border rule would label differently.
// Two dimension-settled arms hold the auto pick itself to its rule
// (ChooseEngine on the window): at d ≤ 3 (every set here fits the grid) it is
// the cell engine, and past d = 7 the sequential μR-tree engine.
func TestStreamSnapshotIsAutoBatch(t *testing.T) {
	type input struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}
	var ins []input
	for _, cc := range data.ConformanceCases() {
		ins = append(ins, input{cc.Name, cc.Pts, cc.Eps, cc.MinPts})
	}
	for _, sc := range data.Scenarios() {
		ins = append(ins, input{sc.Name, sc.Pts, sc.Eps, sc.MinPts})
	}
	for _, in := range ins {
		if in.name != "border-tie-1d" && in.name != "all-border-ties" {
			continue
		}
		for _, dim := range []int{3, 8} {
			padded := make([]geom.Point, len(in.pts))
			for i, p := range in.pts {
				padded[i] = append(slices.Clone(p), make(geom.Point, dim-len(p))...)
			}
			name := fmt.Sprintf("%s-padded-d%d", in.name, dim)
			ins = append(ins, input{name, padded, in.eps, in.minPts})
		}
	}

	for _, in := range ins {
		n := len(in.pts)
		for _, win := range []struct {
			mode string
			opts StreamOptions
		}{
			{"landmark", StreamOptions{}},
			{"damped", StreamOptions{Lambda: math.Ln10 / float64(max(n/2, 1))}}, // keeps about the last half
		} {
			t.Run(in.name+"/"+win.mode, func(t *testing.T) {
				c, err := NewStreamClusterer(len(in.pts[0]), in.eps, in.minPts, win.opts)
				if err != nil {
					t.Fatal(err)
				}
				every := max(n/4, 1)
				for k, p := range in.pts {
					if err := c.Add(p); err != nil {
						t.Fatal(err)
					}
					if (k+1)%every != 0 && k+1 != n {
						continue
					}
					snap := c.Snapshot()
					rows := make([][]float64, snap.Len())
					for i := range rows {
						rows[i] = snap.Points.Row(i)
					}
					want, err := Cluster(rows, in.eps, in.minPts, WithEngine(EngineAuto))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, snap.Result()) {
						t.Fatalf("after %d arrivals: snapshot of %d points differs from the auto batch run", k+1, snap.Len())
					}
					if brute, _ := dbscan.Brute(snap.Points.Points(), in.eps, in.minPts); !reflect.DeepEqual(brute, want) {
						t.Fatalf("after %d arrivals: snapshot of %d points differs from brute force", k+1, snap.Len())
					}
					pick := ChooseEngine(rows, in.eps, in.minPts)
					if dim := len(in.pts[0]); dim <= 3 && pick != EngineCell || dim > 7 && pick != EngineSeq {
						t.Fatalf("after %d arrivals: auto picks %v at d=%d", k+1, pick, dim)
					}
				}
			})
		}
	}
}

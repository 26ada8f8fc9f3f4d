package mudbscan

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// flatten copies pts into one row-major block.
func flatten(pts []geom.Point) []float64 {
	coords := make([]float64, 0, len(pts)*len(pts[0]))
	for _, p := range pts {
		coords = append(coords, p...)
	}
	return coords
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockReadOnlyAcrossEngines: every engine behind ClusterFlat answers
// what ClusterWithStats answers on the same rows, and leaves the caller's
// block bit-identical — the engines read the block in place, so a write
// anywhere in them would show here.
func TestBlockReadOnlyAcrossEngines(t *testing.T) {
	engines := []struct {
		engine  Engine
		workers int
	}{
		{EngineSeq, 0}, {EngineShared, 2}, {EngineCell, 1}, {EngineAuto, 0},
		{EngineStream, 0}, {EngineDist, 2},
	}
	for _, cc := range data.ConformanceCases() {
		rows := toRows(cc.Pts)
		dim := len(cc.Pts[0])
		coords := flatten(cc.Pts)
		before := append([]float64(nil), coords...)
		for _, e := range engines {
			opts := []Option{WithEngine(e.engine), WithWorkers(e.workers)}
			got, gotSt, err := ClusterFlat(coords, dim, cc.Eps, cc.MinPts, opts...)
			if err != nil {
				t.Fatalf("%s: %v@%d: %v", cc.Name, e.engine, e.workers, err)
			}
			if !sameBits(coords, before) {
				t.Fatalf("%s: %v@%d wrote to the caller's block", cc.Name, e.engine, e.workers)
			}
			want, wantSt, err := ClusterWithStats(rows, cc.Eps, cc.MinPts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: %v@%d: ClusterFlat differs from ClusterWithStats", cc.Name, e.engine, e.workers)
			}
			if (wantSt == nil) != (gotSt == nil) || (gotSt != nil && gotSt.NumMCs != wantSt.NumMCs) {
				t.Errorf("%s: %v@%d: stats differ", cc.Name, e.engine, e.workers)
			}
		}
	}
}

// TestBlockRestoredOnEveryEngine: the μ engines reorder ClusterFlat's block
// while they run; every engine, at one worker and at several, hands it back
// bit for bit — −0.0 and subnormal coordinates included — and answers what
// it answers on a copy.
func TestBlockRestoredOnEveryEngine(t *testing.T) {
	pts := data.HouseholdLike(1200, 5, 7)
	pts[10][0] = math.Copysign(0, -1)
	pts[11][1] = math.SmallestNonzeroFloat64
	pts[12][2] = -0x1p-1040
	coords := flatten(pts)
	before := append([]float64(nil), coords...)
	for e := range engineNames {
		for _, workers := range []int{1, 4} {
			opts := []Option{WithEngine(Engine(e)), WithWorkers(workers)}
			got, _, err := ClusterFlat(coords, 5, 0.25, 6, opts...)
			if err != nil {
				t.Fatalf("%v@%d: %v", Engine(e), workers, err)
			}
			if !sameBits(coords, before) {
				t.Fatalf("%v@%d did not restore the caller's block", Engine(e), workers)
			}
			want, _, err := ClusterFlat(append([]float64(nil), before...), 5, 0.25, 6, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v@%d: a run on the caller's block differs from one on a copy", Engine(e), workers)
			}
		}
	}
}

// TestClusterFlatValidation: the flat entry refuses what the row entries
// refuse, plus a block that is not a whole number of rows.
func TestClusterFlatValidation(t *testing.T) {
	good := []float64{1, 2, 3, 4}
	cases := []struct {
		name   string
		coords []float64
		dim    int
		eps    float64
		minPts int
		want   string
	}{
		{"zero eps", good, 2, 0, 3, "eps"},
		{"zero minPts", good, 2, 1, 0, "minPts"},
		{"zero dim", good, 0, 1, 3, "dimension"},
		{"ragged block", good, 3, 1, 3, "whole number"},
		{"NaN coord", []float64{1, 2, 3, math.NaN()}, 2, 1, 3, "point 1 coordinate 1"},
		{"Inf coord", []float64{math.Inf(-1), 2}, 2, 1, 3, "point 0 coordinate 0"},
	}
	for _, c := range cases {
		if _, _, err := ClusterFlat(c.coords, c.dim, c.eps, c.minPts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	far := []float64{0, 0, 1e300, 0}
	if _, _, err := ClusterFlat(far, 2, 1, 2, WithEngine(EngineCell)); !errors.Is(err, ErrCellRange) {
		t.Errorf("cell on unindexable data: err = %v, want ErrCellRange", err)
	}
	for _, e := range []Engine{EngineSeq, EngineCell, EngineAuto, EngineStream, EngineShared} {
		r, _, err := ClusterFlat(nil, 3, 1, 2, WithEngine(e))
		if err != nil || len(r.Labels) != 0 || r.NumClusters != 0 {
			t.Errorf("%v on an empty block: %+v, %v", e, r, err)
		}
	}
}

package mudbscan_test

import (
	"math/rand"
	"reflect"
	"testing"

	"mudbscan"
	"mudbscan/internal/clustering"
)

// TestWithScratchReuse drives the serving-pool pattern through the public
// API: one Scratch lent to a sequence of mixed seq/parallel/cell jobs,
// results matching scratch-free runs (byte-identical where the engine is
// deterministic, equivalent for multi-worker shared).
func TestWithScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rows := make([][]float64, 700)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 8, rng.Float64() * 8}
	}
	eps, minPts := 0.45, 4
	scr := mudbscan.NewScratch()

	wantSeq, err := mudbscan.Cluster(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := mudbscan.Cluster(rows, eps, minPts, mudbscan.WithScratch(scr))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSeq.Labels, got.Labels) {
			t.Fatalf("trial %d: scratch-lent sequential labels differ", trial)
		}
	}

	shared := mudbscan.WithEngine(mudbscan.EngineShared)
	wantPar, err := mudbscan.Cluster(rows, eps, minPts, shared, mudbscan.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mudbscan.Cluster(rows, eps, minPts, shared,
		mudbscan.WithWorkers(1), mudbscan.WithScratch(scr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantPar.Labels, got.Labels) {
		t.Fatal("scratch-lent single-worker parallel labels differ")
	}

	// Multi-worker parallel: border ownership is first-core-wins between
	// runs, so the bar is exact equivalence, not byte identity — and the
	// lent scratch must not change that.
	wantPar4, err := mudbscan.Cluster(rows, eps, minPts, shared, mudbscan.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	got4, err := mudbscan.Cluster(rows, eps, minPts, shared,
		mudbscan.WithWorkers(4), mudbscan.WithScratch(scr))
	if err != nil {
		t.Fatal(err)
	}
	if err := clustering.Equivalent(wantPar4, got4); err != nil {
		t.Fatalf("scratch-lent four-worker parallel not equivalent: %v", err)
	}
	if !reflect.DeepEqual(wantPar4.Core, got4.Core) {
		t.Fatal("scratch-lent four-worker parallel core flags differ")
	}

	// Cell engine: worker-invariant and byte-identical, so the same Scratch
	// lent across repeated multi-worker grid runs must reproduce the
	// scratch-free labels exactly.
	wantCell, err := mudbscan.Cluster(rows, eps, minPts, mudbscan.WithEngine(mudbscan.EngineCell))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSeq.Labels, wantCell.Labels) {
		t.Fatal("cell engine labels differ from sequential")
	}
	for trial := 0; trial < 3; trial++ {
		gotCell, err := mudbscan.Cluster(rows, eps, minPts,
			mudbscan.WithEngine(mudbscan.EngineCell), mudbscan.WithWorkers(3), mudbscan.WithScratch(scr))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantCell, gotCell) {
			t.Fatalf("trial %d: scratch-lent cell result differs", trial)
		}
	}
}

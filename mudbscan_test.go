package mudbscan

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

func toRows(pts []geom.Point) [][]float64 {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	return rows
}

func TestClusterQuickstartShape(t *testing.T) {
	points := [][]float64{
		{1, 1}, {1.1, 1}, {1, 1.1}, {1.1, 1.1}, // cluster 0
		{9, 9}, {9.1, 9}, {9, 9.1}, {9.1, 9.1}, // cluster 1
		{5, 5}, // noise
	}
	r, err := Cluster(points, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters=%d want 2", r.NumClusters)
	}
	if r.Labels[8] != Noise {
		t.Fatal("center point should be noise")
	}
	if r.Labels[0] == r.Labels[4] {
		t.Fatal("the two squares must be distinct clusters")
	}
}

func TestAllModesAgree(t *testing.T) {
	pts := data.Blobs(1200, 3, 4, 0.3, 0.2, 42)
	rows := toRows(pts)
	eps, minPts := 0.45, 5

	want, _ := dbscan.Brute(pts, eps, minPts)

	seq, st, err := ClusterWithStats(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, seq) {
		t.Fatalf("sequential: not brute force's result (%v)", clustering.Equivalent(want, seq))
	}
	if st.NumMCs == 0 {
		t.Fatal("stats not populated")
	}

	par, pst, err := ClusterWithStats(rows, eps, minPts, WithEngine(EngineShared), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, par) {
		t.Fatalf("parallel: not brute force's result (%v)", clustering.Equivalent(want, par))
	}
	if pst.Workers != 4 {
		t.Fatalf("workers=%d", pst.Workers)
	}

	d, dst, err := ClusterDistributed(rows, eps, minPts, 4, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, d) {
		t.Fatalf("distributed: not brute force's result (%v)", clustering.Equivalent(want, d))
	}
	if dst.Ranks != 4 {
		t.Fatalf("ranks=%d", dst.Ranks)
	}
}

func TestFaultToleranceOptions(t *testing.T) {
	pts := data.Blobs(600, 2, 3, 0.25, 0.15, 11)
	rows := toRows(pts)
	eps, minPts := 0.5, 5

	plain, _, err := ClusterDistributed(rows, eps, minPts, 4, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	chaosRun, cst, err := ClusterDistributed(rows, eps, minPts, 4, WithSeed(7), WithFaultInjection(3))
	if err != nil {
		t.Fatal(err)
	}
	if cst.Comm.Retransmits == 0 && cst.Comm.DupDropped == 0 && cst.Comm.CorruptDropped == 0 {
		t.Fatalf("fault injection produced no observable faults: %+v", cst.Comm)
	}
	if !reflect.DeepEqual(plain, chaosRun) {
		t.Fatalf("differs from the clean run (%v)", clustering.Equivalent(plain, chaosRun))
	}
}

func TestOptionsApply(t *testing.T) {
	pts := data.Blobs(800, 2, 3, 0.2, 0.1, 3)
	rows := toRows(pts)
	_, st1, err := ClusterWithStats(rows, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := ClusterWithStats(rows, 0.5, 5, WithoutQueryReduction())
	if err != nil {
		t.Fatal(err)
	}
	if st1.QueriesSaved == 0 {
		t.Fatal("default run should save queries on dense blobs")
	}
	if st2.QueriesSaved != 0 {
		t.Fatal("WithoutQueryReduction must disable savings")
	}
}

// TestEngineSelection pins the public engine surface: the cell engine behind
// WithEngine is byte-identical to brute force on every conformance dataset,
// and every engine behind Cluster returns exactly what the direct call it
// stands for returns — EngineAuto the engine ChooseEngine names.
func TestEngineSelection(t *testing.T) {
	for _, cc := range data.ConformanceCases() {
		rows := toRows(cc.Pts)
		want, _ := dbscan.Brute(cc.Pts, cc.Eps, cc.MinPts)
		got, st, err := ClusterWithStats(rows, cc.Eps, cc.MinPts, WithEngine(EngineCell))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: cell engine differs from brute force", cc.Name)
		}
		if st.NumMCs == 0 || st.Queries+st.QueriesSaved != len(cc.Pts) {
			t.Errorf("%s: cell stats not adapted: %+v", cc.Name, st)
		}
		pick := ChooseEngine(rows, cc.Eps, cc.MinPts)
		engines := []struct {
			engine  Engine
			workers int
			direct  func() (*Result, error)
		}{
			{EngineSeq, 0, func() (*Result, error) {
				r, _ := core.Run(cc.Pts, cc.Eps, cc.MinPts, core.Options{})
				return r, nil
			}},
			{EngineShared, 3, func() (*Result, error) {
				r, _ := core.Run(cc.Pts, cc.Eps, cc.MinPts, core.Options{Workers: 3})
				return r, nil
			}},
			{EngineCell, 1, func() (*Result, error) {
				r, _ := cell.Run(cc.Pts, cc.Eps, cc.MinPts, cell.Options{Workers: 1})
				return r, nil
			}},
			{EngineCell, 3, func() (*Result, error) {
				r, _ := cell.Run(cc.Pts, cc.Eps, cc.MinPts, cell.Options{Workers: 3})
				return r, nil
			}},
			{EngineDist, 2, func() (*Result, error) {
				r, _, err := ClusterDistributed(rows, cc.Eps, cc.MinPts, 2)
				return r, err
			}},
			{EngineStream, 3, func() (*Result, error) {
				return ClusterStream(rows, cc.Eps, cc.MinPts, WithWorkers(3))
			}},
			{EngineAuto, 0, func() (*Result, error) {
				return Cluster(rows, cc.Eps, cc.MinPts, WithEngine(pick))
			}},
		}
		for _, e := range engines {
			got, err := Cluster(rows, cc.Eps, cc.MinPts, WithEngine(e.engine), WithWorkers(e.workers))
			if err != nil {
				t.Fatalf("%s: %v@%d: %v", cc.Name, e.engine, e.workers, err)
			}
			direct, err := e.direct()
			if err != nil {
				t.Fatalf("%s: direct %v@%d: %v", cc.Name, e.engine, e.workers, err)
			}
			if !reflect.DeepEqual(direct, got) {
				t.Errorf("%s: %v@%d through Cluster differs from the direct call", cc.Name, e.engine, e.workers)
			}
		}
	}
}

// TestChooseEngineBranches pins the selector on representative inputs: the
// grid always wins at low d, never at high d, and degenerate inputs fall
// back to the μR-tree.
func TestChooseEngineBranches(t *testing.T) {
	low := toRows(data.Blobs(500, 2, 3, 0.3, 0.1, 11))
	if e := ChooseEngine(low, 0.5, 5); e != EngineCell {
		t.Fatalf("2-D blobs chose %v, want cell", e)
	}
	high := toRows(data.Blobs(500, 8, 3, 0.3, 0.1, 12))
	if e := ChooseEngine(high, 0.5, 5); e != EngineSeq {
		t.Fatalf("8-D blobs chose %v, want seq", e)
	}
	if e := ChooseEngine(nil, 0.5, 5); e != EngineSeq {
		t.Fatalf("empty input chose %v, want seq", e)
	}
	if e := ChooseEngine(low, 0, 5); e != EngineSeq {
		t.Fatalf("eps=0 chose %v, want seq", e)
	}
	for e, want := range map[Engine]string{EngineSeq: "seq", EngineCell: "cell", EngineAuto: "auto"} {
		if e.String() != want {
			t.Fatalf("Engine(%d).String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

// TestCellRangeGuard pins the grid's representability bound on every engine
// path of Cluster: coordinates so far from the origin (in cells of side ε/√d)
// that float64 can no longer tell neighbouring cells apart used to come back
// from the cell engine — and from auto, which picked it — as one merged
// cluster. Both lattices are all-noise under brute force.
func TestCellRangeGuard(t *testing.T) {
	lattice := func(base, step float64, n int) [][]float64 {
		rows := make([][]float64, n)
		for k := range rows {
			rows[k] = []float64{base + float64(k)*step, 0}
		}
		return rows
	}
	for name, rows := range map[string][][]float64{
		"saturated int64 (|v|/side ≥ 2^63)":        lattice(0, 1e30, 8),
		"collapsed cells (2^53 ≤ |v|/side < 2^62)": lattice(1.1e17, 16, 64),
	} {
		pts := make([]geom.Point, len(rows))
		for i, r := range rows {
			pts[i] = r
		}
		want, _ := dbscan.Brute(pts, 1, 2)
		if want.NumClusters != 0 {
			t.Fatalf("%s: brute force found %d clusters in an all-noise lattice", name, want.NumClusters)
		}
		if e := ChooseEngine(rows, 1, 2); e != EngineSeq {
			t.Errorf("%s: ChooseEngine = %v, want seq", name, e)
		}
		for _, e := range []Engine{EngineSeq, EngineAuto} {
			got, err := Cluster(rows, 1, 2, WithEngine(e))
			if err != nil {
				t.Fatalf("%s: engine %v: %v", name, e, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: engine %v differs from brute force (%d clusters)", name, e, got.NumClusters)
			}
		}
		if _, err := Cluster(rows, 1, 2, WithEngine(EngineCell)); !errors.Is(err, ErrCellRange) {
			t.Errorf("%s: explicit cell engine: err = %v, want ErrCellRange", name, err)
		}
	}
	// The same lattice shape inside the bound still runs on the grid.
	near := lattice(1e6, 16, 64)
	if e := ChooseEngine(near, 1, 2); e != EngineCell {
		t.Errorf("in-range lattice chose %v, want cell", e)
	}
	if _, err := Cluster(near, 1, 2, WithEngine(EngineCell)); err != nil {
		t.Errorf("in-range lattice on the cell engine: %v", err)
	}
}

func TestValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	cases := []struct {
		name   string
		points [][]float64
		eps    float64
		minPts int
	}{
		{"zero eps", good, 0, 3},
		{"negative eps", good, -1, 3},
		{"NaN eps", good, math.NaN(), 3},
		{"Inf eps", good, math.Inf(1), 3},
		{"zero minPts", good, 1, 0},
		{"dim mismatch", [][]float64{{1, 2}, {3}}, 1, 3},
		{"empty point", [][]float64{{}}, 1, 3},
		{"NaN coord", [][]float64{{1, math.NaN()}}, 1, 3},
		{"Inf coord", [][]float64{{1, math.Inf(-1)}}, 1, 3},
	}
	for _, c := range cases {
		if _, err := Cluster(c.points, c.eps, c.minPts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// The rank count is resolved before any rank starts, on both ways in.
	for _, ranks := range []int{0, 3, 6} {
		_, _, err := ClusterDistributed(good, 1, 3, ranks)
		if err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("%d ranks: err = %v, want the power-of-two rule", ranks, err)
		}
		if _, err := Cluster(good, 1, 3, WithEngine(EngineDist), WithWorkers(ranks)); err == nil {
			t.Errorf("%d ranks through Cluster: expected error", ranks)
		}
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		if _, _, err := ClusterDistributed(good, 1, 3, ranks); err != nil {
			t.Errorf("%d ranks: %v", ranks, err)
		}
	}
}

func TestEngineStringParseRoundTrip(t *testing.T) {
	for e := EngineAuto; int(e) < len(engineNames); e++ {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("round trip %v: got %v, err %v", e, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("unknown engine name must fail")
	}
	if e, err := ParseEngine(""); err != nil || e != EngineAuto {
		t.Fatal("empty engine name must mean auto")
	}
}

// Nobody can allocate 2^31 rows in a test, so the int32 ceiling is held at
// its predicate: validate, which every entry point goes through, returns
// ErrTooManyPoints exactly when tooManyPoints says so.
func TestTooManyPointsCeiling(t *testing.T) {
	if tooManyPoints(0) || tooManyPoints(math.MaxInt32) {
		t.Error("2^31-1 points must be accepted")
	}
	if math.MaxInt > math.MaxInt32 {
		over := math.MaxInt32
		over++
		if !tooManyPoints(over) || !tooManyPoints(math.MaxInt) {
			t.Error("2^31 points must be refused")
		}
	}
}

func TestEmptyInput(t *testing.T) {
	r, err := Cluster(nil, 1, 3)
	if err != nil || len(r.Labels) != 0 || r.NumClusters != 0 {
		t.Fatalf("empty input: %v %v", r, err)
	}
	rp, _, err := ClusterWithStats(nil, 1, 3, WithEngine(EngineShared))
	if err != nil || len(rp.Labels) != 0 {
		t.Fatalf("empty parallel: %v %v", rp, err)
	}
	rd, _, err := ClusterDistributed(nil, 1, 3, 4)
	if err != nil || len(rd.Labels) != 0 {
		t.Fatalf("empty distributed: %v %v", rd, err)
	}
}

func TestResultHelpers(t *testing.T) {
	r, err := Cluster([][]float64{{0}, {0.1}, {0.2}, {50}}, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCorePoints() == 0 || r.NumNoise() != 1 {
		t.Fatalf("cores=%d noise=%d", r.NumCorePoints(), r.NumNoise())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mudbscan/internal/geom"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// bruteSphere returns sorted ids with dist(p, center) < r (strict) or <= r.
func bruteSphere(pts []geom.Point, center geom.Point, r float64, strict bool) []int {
	var out []int
	for i, p := range pts {
		d2 := geom.DistSq(center, p)
		if d2 < r*r || (!strict && d2 == r*r) {
			out = append(out, i)
		}
	}
	return out
}

func collectSphere(t *Packed, center geom.Point, r float64, strict bool) []int {
	got, _ := t.SphereInto(center, r, strict, nil)
	sort.Ints(got)
	return got
}

// everyID is the unbounded query: every stored id, in tree order.
func everyID(t *Packed) []int {
	got, _ := t.SphereInto(make(geom.Point, t.dim), math.Inf(1), false, nil)
	return got
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := New(3, 0)
	if tr.Len() != 0 {
		t.Fatal("empty tree length")
	}
	for _, empty := range []*Packed{Freeze(tr), BulkLoad(3, 0, nil, nil)} {
		if got, n := empty.SphereInto(geom.Point{0, 0, 0}, 1, true, nil); n != 0 || len(got) != 0 || empty.Len() != 0 {
			t.Fatal("empty tree sphere should do no work")
		}
	}
}

func TestInsertAndSphereMatchesBrute(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(d)))
		pts := randPoints(rng, 500, d)
		tr := New(d, 8)
		for i, p := range pts {
			tr.Insert(i, p)
		}
		if tr.Len() != 500 {
			t.Fatalf("d=%d Len=%d", d, tr.Len())
		}
		for trial := 0; trial < 50; trial++ {
			c := pts[rng.Intn(len(pts))]
			r := rng.Float64() * 30
			want := bruteSphere(pts, c, r, true)
			got := collectSphere(Freeze(tr), c, r, true)
			if !equalInts(got, want) {
				t.Fatalf("d=%d sphere mismatch: got %d want %d ids", d, len(got), len(want))
			}
		}
	}
}

func TestSphereClosedVsStrict(t *testing.T) {
	tr := New(1, 0)
	tr.Insert(0, geom.Point{0})
	tr.Insert(1, geom.Point{5})
	got := collectSphere(Freeze(tr), geom.Point{0}, 5, true)
	if !equalInts(got, []int{0}) {
		t.Fatalf("strict: %v", got)
	}
	got = collectSphere(Freeze(tr), geom.Point{0}, 5, false)
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("closed: %v", got)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 300, 2)
	tr := New(2, 6)
	for i, p := range pts {
		tr.Insert(i, p)
	}
	seen := make(map[int]bool)
	for _, id := range everyID(Freeze(tr)) {
		if seen[id] {
			t.Fatalf("id %d visited twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 300 {
		t.Fatalf("the unbounded query visited %d of 300", len(seen))
	}
}

func TestRootMBRCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 200, 4)
	tr := New(4, 8)
	for i, p := range pts {
		tr.Insert(i, p)
	}
	for _, root := range []geom.MBR{tr.root.mbr, rootMBR(Freeze(tr)), rootMBR(BulkLoad(4, 8, pts, nil))} {
		for _, p := range pts {
			if root.Contains(p) {
				continue
			}
			t.Fatalf("root MBR misses %v", p)
		}
	}
}

// rootMBR views the box of node 0 as a geom.MBR.
func rootMBR(f *Packed) geom.MBR {
	box := f.box(0)
	return geom.MBR{Min: box[:f.dim], Max: box[f.dim:]}
}

func TestBulkLoadMatchesBrute(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 250, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := randPoints(rng, n, 3)
		tr := BulkLoad(3, 8, pts, nil)
		if tr.Len() != n {
			t.Fatalf("n=%d Len=%d", n, tr.Len())
		}
		seen := make(map[int]bool)
		for _, id := range everyID(tr) {
			seen[id] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d BulkLoad lost points: %d", n, len(seen))
		}
		for trial := 0; trial < 20 && n > 0; trial++ {
			c := pts[rng.Intn(n)]
			r := rng.Float64() * 40
			if !equalInts(collectSphere(tr, c, r, true), bruteSphere(pts, c, r, true)) {
				t.Fatalf("n=%d bulk sphere mismatch", n)
			}
		}
	}
}

func TestBulkLoadCustomIDs(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {2, 2}}
	ids := []int{10, 20, 30}
	tr := BulkLoad(2, 0, pts, ids)
	got := collectSphere(tr, geom.Point{1, 1}, 0.5, true)
	if !equalInts(got, []int{20}) {
		t.Fatalf("got %v", got)
	}
}

func TestBulkLoadIDMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BulkLoad(2, 0, []geom.Point{{0, 0}}, []int{1, 2})
}

func TestInsertDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0).Insert(0, geom.Point{1})
}

func TestHeightGrows(t *testing.T) {
	tr := New(2, 4)
	if tr.Height() != 1 {
		t.Fatal("empty tree height 1")
	}
	rng := rand.New(rand.NewSource(3))
	for i, p := range randPoints(rng, 200, 2) {
		tr.Insert(i, p)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d too small for 200 pts fanout 4", tr.Height())
	}
}

// invariantCheck walks the tree rooted at root verifying structural
// invariants on the flat nodes: every child box is inside its parent's, leaf
// rows are inside the leaf box and every box is tight, node occupancy
// respects the max bound, children and rows are where the ranges say, and all
// leaves are at one depth. It returns the number of nodes and rows it saw.
func invariantCheck(t *testing.T, f *Packed, root int32) (nodes, rows int) {
	t.Helper()
	dim := f.dim
	var walk func(n int32, depth int) int
	walk = func(n int32, depth int) int {
		nodes++
		nd := f.nodes[n]
		box := f.box(n)
		tight := make([]float64, 2*dim)
		if nd.count > 0 {
			if int(nd.count) > f.maxEntries {
				t.Fatalf("leaf %d holds %d rows, fan-out %d", n, nd.count, f.maxEntries)
			}
			rows += int(nd.count)
			boundRows(tight, f.rows[int(nd.first)*dim:int(nd.first+nd.count)*dim], dim)
			if !equalFloats(tight, box) {
				t.Fatalf("leaf %d: box %v, rows span %v", n, box, tight)
			}
			return depth
		}
		children := -nd.count
		if children == 0 || int(children) > f.maxEntries {
			t.Fatalf("inner node %d has %d children, fan-out %d", n, children, f.maxEntries)
		}
		if nd.first <= n {
			t.Fatalf("inner node %d has its children at %d", n, nd.first)
		}
		copy(tight, f.box(nd.first))
		d := -1
		for c := nd.first; c < nd.first+children; c++ {
			extendBox(tight, f.box(c), dim)
			cd := walk(c, depth+1)
			if d == -1 {
				d = cd
			} else if d != cd {
				t.Fatalf("leaves at different depths: %d vs %d", d, cd)
			}
		}
		if !equalFloats(tight, box) {
			t.Fatalf("inner node %d: box %v, children span %v", n, box, tight)
		}
		return d
	}
	if len(f.nodes) > 0 {
		walk(root, 0)
	}
	return nodes, rows
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := New(3, 5)
	for i, p := range randPoints(rng, 800, 3) {
		tr.Insert(i, p)
	}
	for _, f := range []*Packed{Freeze(tr), BulkLoad(3, 5, randPoints(rng, 800, 3), nil)} {
		nodes, rows := invariantCheck(t, f, 0)
		if nodes != len(f.nodes) || rows != 800 {
			t.Fatalf("walk reached %d of %d nodes, %d of 800 rows", nodes, len(f.nodes), rows)
		}
	}
}

// Property: for random point sets and random queries, insert-built and
// bulk-loaded trees agree with brute force, strict and closed.
func TestQuickSphereEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		d := 1 + rng.Intn(4)
		n := rng.Intn(120)
		pts := randPoints(rng, n, d)
		ins := New(d, 4+rng.Intn(8))
		for i, p := range pts {
			ins.Insert(i, p)
		}
		blk := BulkLoad(d, 4+rng.Intn(8), pts, nil)
		if n == 0 {
			return true
		}
		c := pts[rng.Intn(n)]
		r := rng.Float64() * 60
		strict := rng.Intn(2) == 0
		want := bruteSphere(pts, c, r, strict)
		return equalInts(collectSphere(Freeze(ins), c, r, strict), want) &&
			equalInts(collectSphere(blk, c, r, strict), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSphereReportsDistCalcs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randPoints(rng, 1000, 2)
	tr := BulkLoad(2, 16, pts, nil)
	// A tiny query near one point should visit far fewer than all points.
	_, calls := tr.SphereInto(pts[0], 0.5, true, nil)
	if calls <= 0 || calls >= 600 {
		t.Fatalf("distCalcs=%d; pruning appears broken", calls)
	}
}

// TestInsertNonFiniteDoesNotPanic: NaN and ±Inf rows make every area in the
// quadratic split NaN; the split must still place every entry.
func TestInsertNonFiniteDoesNotPanic(t *testing.T) {
	tr := New(2, 4)
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 2}
	for i := 0; i < 200; i++ {
		tr.Insert(i, geom.Point{vals[i%len(vals)], vals[(i/len(vals))%len(vals)]})
	}
	// A sphere query cannot enumerate NaN rows, so count the leaves directly.
	seen := 0
	var count func(n *node)
	count = func(n *node) {
		seen += len(n.ids)
		for _, c := range n.children {
			count(c)
		}
	}
	count(tr.root)
	if seen != 200 || tr.Len() != 200 {
		t.Fatalf("tree holds %d (Len %d) of 200 points", seen, tr.Len())
	}
	// The finite rows stay reachable through the NaN and infinite boxes.
	c := geom.Point{1, 1}
	var want []int
	for i := 0; i < 200; i++ {
		if vals[i%len(vals)] == 1 && vals[(i/len(vals))%len(vals)] == 1 {
			want = append(want, i)
		}
	}
	if got := collectSphere(Freeze(tr), c, 0.5, true); len(want) == 0 || !equalInts(got, want) {
		t.Fatalf("sphere around %v: %v, want %v", c, got, want)
	}
}

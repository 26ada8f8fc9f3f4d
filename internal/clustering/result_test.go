package clustering

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestValidateOK(t *testing.T) {
	r := &Result{
		Labels:      []int{0, 0, 1, Noise},
		Core:        []bool{true, false, true, false},
		NumClusters: 2,
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumCorePoints() != 2 || r.NumNoise() != 1 {
		t.Fatalf("counts wrong: cores=%d noise=%d", r.NumCorePoints(), r.NumNoise())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		r    Result
		want string
	}{
		{"core noise", Result{Labels: []int{Noise}, Core: []bool{true}, NumClusters: 0}, "core point 0 labeled noise"},
		{"range", Result{Labels: []int{5}, Core: []bool{true}, NumClusters: 1}, "outside"},
		{"unused", Result{Labels: []int{1, 1}, Core: []bool{true, true}, NumClusters: 2}, "label 0 unused"},
		{"no core", Result{Labels: []int{0}, Core: []bool{false}, NumClusters: 1}, "no core point"},
		{"len", Result{Labels: []int{0}, Core: nil, NumClusters: 1}, "labels vs"},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v want substring %q", c.name, err, c.want)
		}
	}
}

func TestEquivalentAcceptsPermutation(t *testing.T) {
	a := &Result{Labels: []int{0, 0, 1, Noise}, Core: []bool{true, true, true, false}, NumClusters: 2}
	b := &Result{Labels: []int{1, 1, 0, Noise}, Core: []bool{true, true, true, false}, NumClusters: 2}
	if err := Equivalent(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentAcceptsBorderReassignment(t *testing.T) {
	// Point 2 is a border that legally flips between clusters 0 and 1.
	a := &Result{Labels: []int{0, 1, 0}, Core: []bool{true, true, false}, NumClusters: 2}
	b := &Result{Labels: []int{0, 1, 1}, Core: []bool{true, true, false}, NumClusters: 2}
	if err := Equivalent(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentRejects(t *testing.T) {
	base := &Result{Labels: []int{0, 0, 1, Noise}, Core: []bool{true, true, true, false}, NumClusters: 2}
	cases := []struct {
		name string
		b    *Result
	}{
		{"core flag", &Result{Labels: []int{0, 0, 1, Noise}, Core: []bool{true, false, true, false}, NumClusters: 2}},
		{"count", &Result{Labels: []int{0, 0, 0, Noise}, Core: []bool{true, true, true, false}, NumClusters: 1}},
		{"split", &Result{Labels: []int{0, 1, 2, Noise}, Core: []bool{true, true, true, false}, NumClusters: 3}},
		{"noise status", &Result{Labels: []int{0, 0, 1, 1}, Core: []bool{true, true, true, false}, NumClusters: 2}},
		{"size", &Result{Labels: []int{0}, Core: []bool{true}, NumClusters: 1}},
	}
	for _, c := range cases {
		if err := Equivalent(base, c.b); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEquivalentRejectsMerge(t *testing.T) {
	// a has clusters {0},{1}; b merges both cores into one cluster but keeps
	// count via an extra singleton-core cluster.
	a := &Result{Labels: []int{0, 1, 1}, Core: []bool{true, true, true}, NumClusters: 2}
	b := &Result{Labels: []int{0, 0, 1}, Core: []bool{true, true, true}, NumClusters: 2}
	if err := Equivalent(a, b); err == nil {
		t.Fatal("expected merge rejection")
	}
}

func TestClusterSizesAndMembers(t *testing.T) {
	r := &Result{
		Labels:      []int{0, 1, 0, Noise, 1, 1},
		Core:        []bool{true, true, false, false, true, false},
		NumClusters: 2,
	}
	if a, b := len(r.Members(0)), len(r.Members(1)); a != 2 || b != 3 {
		t.Fatalf("sizes=[%d %d]", a, b)
	}
	if m := r.Members(0); len(m) != 2 || m[0] != 0 || m[1] != 2 {
		t.Fatalf("members(0)=%v", m)
	}
	if m := r.Members(Noise); len(m) != 1 || m[0] != 3 {
		t.Fatalf("members(noise)=%v", m)
	}
}

func TestFromUnionLabels(t *testing.T) {
	// components: {0,1} with core, {2} core alone, {3,4} no core, {5} no core
	comp := []int{7, 7, 3, 9, 9, 2}
	core := []bool{true, false, true, false, false, false}
	r := FromUnionLabels(comp, core)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters=%d want 2", r.NumClusters)
	}
	if r.Labels[0] != 0 || r.Labels[1] != 0 {
		t.Fatalf("first component labels %v", r.Labels)
	}
	if r.Labels[2] != 1 {
		t.Fatalf("second cluster label %d", r.Labels[2])
	}
	for _, i := range []int{3, 4, 5} {
		if r.Labels[i] != Noise {
			t.Fatalf("point %d should be noise", i)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// fromUnionLabelsMaps is the map-based FromUnionLabels the dense one
// replaced; it is the reference the dense tables are held to.
func fromUnionLabelsMaps(component []int, core []bool) *Result {
	clusterOf := make(map[int]int)
	hasCore := make(map[int]bool)
	for i, comp := range component {
		if core[i] {
			hasCore[comp] = true
		}
	}
	labels := make([]int, len(component))
	next := 0
	for i, comp := range component {
		if !hasCore[comp] {
			labels[i] = Noise
			continue
		}
		l, ok := clusterOf[comp]
		if !ok {
			l = next
			clusterOf[comp] = l
			next++
		}
		labels[i] = l
	}
	return &Result{Labels: labels, Core: core, NumClusters: next}
}

// TestFromUnionLabelsMatchesMaps: on random component arrays — ids below n
// as union-find gives them, and ids up to 2n as the cell engine gives them —
// the dense tables number clusters exactly as the maps did, whether the ids
// come as int or int32.
func TestFromUnionLabelsMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		span := 1 + rng.Intn(2*n+1)
		comp := make([]int, n)
		comp32 := make([]int32, n)
		core := make([]bool, n)
		for i := range comp {
			comp[i] = rng.Intn(span)
			comp32[i] = int32(comp[i])
			core[i] = rng.Intn(3) == 0
		}
		want := fromUnionLabelsMaps(comp, core)
		if got := FromUnionLabels(comp, core); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: []int: %v, maps %v", trial, got.Labels, want.Labels)
		}
		if got := FromUnionLabels(comp32, core); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: []int32: %v, maps %v", trial, got.Labels, want.Labels)
		}
	}
}

package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fullSort is the order selectSlabs stands for, spelled independently: by
// key through cmp.Compare (NaN first), then by row.
func fullSort(s []keyed) {
	slices.SortFunc(s, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
}

// TestSlabsMatchFullSort: on random, tie-heavy, NaN-laden and presorted keys,
// at slab sizes from one entry to the whole level, selection leaves every
// slab holding exactly the entries a full sort puts there, and a sorted slab
// — a leaf — is the full sort's run entry for entry. Size 1, the level sort,
// is the full sort; so is the fallback that runs when the pivots keep failing.
func TestSlabsMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		name string
		key  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.NormFloat64() }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
		{"all-equal", func(int, int) float64 { return 0.5 }},
		{"nan", func(int, int) float64 {
			switch rng.Intn(5) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(rng.Intn(2)*2 - 1)
			case 2:
				return math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
			return float64(rng.Intn(4))
		}},
		{"ascending", func(i, _ int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
	} {
		for _, n := range []int{0, 1, 2, 13, 64, 100, 1000, 5000} {
			// Rows are distinct within one ordering, as in the packer.
			in := make([]keyed, n)
			for i, row := range rng.Perm(n) {
				in[i] = keyed{key: c.key(i, n), at: int32(row)}
			}
			want := slices.Clone(in)
			fullSort(want)
			for _, size := range []int{1, 2, 5, 12, 13, 16, 37, 100, n + 1} {
				for _, budget := range []int{-1, 0} {
					got := slices.Clone(in)
					if budget < 0 {
						selectSlabs(got, size)
					} else {
						slabSelect(got, 0, size, budget)
					}
					where := fmt.Sprintf("%s n=%d size=%d budget=%d", c.name, n, size, budget)
					for start := 0; start < n; start += size {
						slab := got[start:min(start+size, n)]
						insertionSort(slab)
						if w := want[start:min(start+size, n)]; !sameKeyed(slab, w) {
							t.Fatalf("%s: slab at %d is %v, full sort has %v", where, start, slab, w)
						}
					}
				}
			}
		}
	}
}

// sameKeyed compares entry for entry, NaN keys equal to NaN keys.
func sameKeyed(a, b []keyed) bool {
	return slices.EqualFunc(a, b, func(x, y keyed) bool {
		return x.at == y.at && cmp.Compare(x.key, y.key) == 0
	})
}

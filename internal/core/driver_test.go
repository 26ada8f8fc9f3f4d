package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// pinned is what core.Run returned on every conformance and scenario dataset
// at the last commit that still had a separate sequential driver (PR 13,
// 6d7bab1): a hash of the labels and core flags, and the deterministic
// counters. The one-worker case of the unified driver must reproduce it
// bit for bit.
//
// distCalcs moved once since, when steps 3 and 4 stopped recomputing
// distances they already knew (the inner-circle pass reads the ε-scan's own
// d², post-processing prunes by centre distances): nothing else did, and no
// count went up. The values before, in table order: 12068, 3460, 1929, 14521,
// 200, 68, 8089, 3965, 341, 4927, 1063, 1632, 27941.
//
// centerCalcs is pinned since step 4 began to classify micro-clusters and to
// visit only those that can hold an edge, which moved it and nothing else; the
// values before, in table order: 3060, 1201, 2397, 4394, 100, 18, 3199, 2002,
// 266, 6040, 6148, 432, 5630.
//
// distCalcs moved a second time, re-pinned in the PR that did it, when step 3
// began to ask a settled micro-cluster for its ε/2 ball only (DESIGN.md §8,
// cut (f)): both ways, down where the short walks save more than the reruns
// cost, up on the small lattices where most queries are rerun. The values
// before, in table order: 8896, 2310, 1166, 11028, 100, 40, 6359, 2962, 196,
// 2698, 539, 960, 17643. requeries, pinned since, counts the reruns, and each
// one is charged its second round of 2ε tests: that, and nothing in step 4, is
// what raised centerCalcs from 2190, 773, 2283, 2904, 100, 18, 3133, 1896,
// 194, 3753, 1112, 432, 2812. Hashes, m, queries and queriesSaved are as they
// were.
//
// queries, queriesSaved, requeries, distCalcs and centerCalcs moved together
// when a micro-cluster's MinPts-radius began to prove points core without a
// query, in step 1 and at the head of step 3 (DESIGN.md §8, cut (g)). Hashes
// and m did not move, and all-noise and cell-boundary-lattice-2d did not move
// at all. Saved queries rose on the other eleven; distCalcs fell on all
// eleven; centerCalcs rose on blobs-2d-small-eps and bursty-arrival, where
// step 4 now merges more wndq-cores. The values before, in table order
// (queries, saved, requeries, distCalcs, centerCalcs): blobs-3d 255 145 60 8561
// 2862, blobs-2d-small-eps 163 187 12 1614 860, uniform-2d 285 15 51 1430
// 2651, skewed-3d 146 204 32 7187 3595, border-tie-1d 5 6 1 51 20,
// lattice-dup-2d 169 11 55 7199 4022, hot-cell-skew-2d 40 63 1 199 197,
// geo-drift 978 1422 7 2736 3781, highdim-embed 37 1463 0 539 1112,
// all-border-ties 120 144 24 1224 480, bursty-arrival 360 1640 40 10189 3176.
//
// The hashes of border-tie-1d and all-border-ties moved, each to dbscan.Brute's,
// when borders stopped being claimed by the first core to reach them and
// began to join their smallest-id core neighbor's cluster after step 4; they
// were e30b173a88190649 and 26f7169e5d4b305f. The other eleven hashes, m,
// queries and queriesSaved did not move. requeries, distCalcs and centerCalcs
// did on nine datasets: a non-core point no longer shares a component with
// its micro-cluster's centre before its query, so step 3 settles micro-
// clusters by the centre of the point's own whole micro-cluster instead, and
// fewer queries are rerun. The values before, in table order (requeries,
// distCalcs, centerCalcs): blobs-3d 54 7541 2582, blobs-2d-small-eps 7 1068
// 880, uniform-2d 47 1384 2609, skewed-3d 30 5721 3419, lattice-dup-2d 48 6817
// 3780, cell-boundary-lattice-2d 117 4266 3054, hot-cell-skew-2d 1 135 194,
// geo-drift 2 2000 3763, bursty-arrival 28 4349 4812.
//
// centerCalcs moved once more, and nothing else did, when step 4 began to
// drop from a whole micro-cluster's live reach list every one-component
// micro-cluster already in its centre's component, a test each of its
// wndq-cores used to repeat: down on twelve datasets, all-noise as it was.
// The values before, in table order: 2376, 861, 2560, 3309, 100, 16, 3563,
// 2640, 191, 3760, 1057, 384, 4754.
var pinned = []struct {
	name                          string
	hash                          string
	numMCs, queries, queriesSaved int
	requeries                     int
	distCalcs, centerCalcs        int64
}{
	{"blobs-3d", "d05c6c4478e8884f", 134, 236, 164, 36, 7513, 2158},
	{"blobs-2d-small-eps", "12d7c868fbc5c446", 128, 144, 206, 4, 1095, 717},
	{"uniform-2d", "b26a8f28c97c4d8f", 150, 281, 19, 40, 1355, 2538},
	{"skewed-3d", "68d6b809346e7bcd", 66, 129, 221, 23, 5731, 2994},
	{"all-noise", "7fbbb3cee1a34f39", 100, 100, 0, 0, 100, 100},
	{"border-tie-1d", "413c0541fd1a832d", 2, 3, 8, 1, 36, 14},
	{"lattice-dup-2d", "b81a379f04a0845d", 36, 162, 18, 32, 6851, 3380},
	{"cell-boundary-lattice-2d", "a2c19f9be7d51e78", 53, 176, 20, 76, 3871, 2472},
	{"hot-cell-skew-2d", "b66710c9b1c473ab", 39, 39, 64, 0, 132, 189},
	{"geo-drift", "65549f16ef46471d", 871, 967, 1433, 1, 1997, 3731},
	{"highdim-embed", "d7b9f0a0af778109", 41, 35, 1465, 0, 49, 1051},
	{"all-border-ties", "6b767dc17f0c0498", 48, 72, 192, 24, 864, 336},
	{"bursty-arrival", "2be5ded5c4f2526b", 241, 283, 1717, 20, 4365, 4293},
}

// resultHash digests labels and core flags: nine bytes a point, the label as
// a little-endian int64 followed by the flag.
func resultHash(r *clustering.Result) string {
	h := sha256.New()
	var b [9]byte
	for i, l := range r.Labels {
		binary.LittleEndian.PutUint64(b[:8], uint64(int64(l)))
		b[8] = 0
		if r.Core[i] {
			b[8] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

type driverCase struct {
	name   string
	pts    []geom.Point
	eps    float64
	minPts int
}

// driverCases is the conformance table followed by the scenario corpus, in
// the order of pinned.
func driverCases() []driverCase {
	var cases []driverCase
	for _, c := range data.ConformanceCases() {
		cases = append(cases, driverCase{c.Name, c.Pts, c.Eps, c.MinPts})
	}
	for _, s := range data.Scenarios() {
		cases = append(cases, driverCase{s.Name, s.Pts, s.Eps, s.MinPts})
	}
	return cases
}

// TestOneWorkerMatchesPinnedSequential: Workers 0 and 1 are the sequential
// algorithm, byte for byte.
func TestOneWorkerMatchesPinnedSequential(t *testing.T) {
	cases := driverCases()
	if len(cases) != len(pinned) {
		t.Fatalf("%d datasets, %d pins", len(cases), len(pinned))
	}
	for k, c := range cases {
		pin := pinned[k]
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				if c.name != pin.name {
					t.Fatalf("pin %d is for %q", k, pin.name)
				}
				r, st := Run(c.pts, c.eps, c.minPts, Options{Workers: workers})
				if got := resultHash(r); got != pin.hash {
					t.Errorf("labels+core hash %s, pinned %s", got, pin.hash)
				}
				if st.NumMCs != pin.numMCs || st.Queries != pin.queries || st.QueriesSaved != pin.queriesSaved ||
					st.Requeries != pin.requeries || st.DistCalcs != pin.distCalcs || st.CenterCalcs != pin.centerCalcs {
					t.Errorf("m=%d queries=%d saved=%d requeries=%d distcalcs=%d centercalcs=%d, pinned %d %d %d %d %d %d",
						st.NumMCs, st.Queries, st.QueriesSaved, st.Requeries, st.DistCalcs, st.CenterCalcs,
						pin.numMCs, pin.queries, pin.queriesSaved, pin.requeries, pin.distCalcs, pin.centerCalcs)
				}
				if st.Workers != 1 {
					t.Errorf("Workers=%d, want 1", st.Workers)
				}
			})
		}
	}
}

// TestManyWorkersExact holds every dataset at 1, 2, 3, 4 and 8 workers, and
// at 1 and 4 with wndq-cores disabled, to brute force: the same result, byte
// for byte, every point either queried or saved, and the μR-tree of the
// one-worker run. Each run is under a deadline so that a hang fails the case
// instead of stalling the suite; CI runs this under -race at GOMAXPROCS 4.
func TestManyWorkersExact(t *testing.T) {
	var arms []Options
	for _, workers := range []int{1, 2, 3, 4, 8} {
		arms = append(arms, Options{Workers: workers})
	}
	arms = append(arms, Options{Workers: 1, DisableWndq: true}, Options{Workers: 4, DisableWndq: true})
	for _, c := range driverCases() {
		want, _ := dbscan.Brute(c.pts, c.eps, c.minPts)
		_, one := Run(c.pts, c.eps, c.minPts, Options{})
		for _, opts := range arms {
			workers, name := opts.Workers, fmt.Sprintf("%s/workers=%d", c.name, opts.Workers)
			if opts.DisableWndq {
				name += "/nowndq"
			}
			t.Run(name, func(t *testing.T) {
				type out struct {
					r  *clustering.Result
					st *Stats
				}
				done := make(chan out, 1)
				go func() {
					r, st := Run(c.pts, c.eps, c.minPts, opts)
					done <- out{r, st}
				}()
				var o out
				select {
				case o = <-done:
				case <-time.After(time.Minute):
					t.Fatal("run did not finish within a minute")
				}
				if err := o.r.Validate(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, o.r) {
					t.Fatalf("not brute force's result: %v", clustering.Equivalent(want, o.r))
				}
				if o.st.Queries+o.st.QueriesSaved != len(c.pts) {
					t.Fatalf("queries %d + saved %d != n %d", o.st.Queries, o.st.QueriesSaved, len(c.pts))
				}
				if o.st.NumMCs != one.NumMCs {
					t.Fatalf("m=%d, one worker built %d", o.st.NumMCs, one.NumMCs)
				}
				if o.st.Workers != workers {
					t.Fatalf("Workers=%d, want %d", o.st.Workers, workers)
				}
			})
		}
	}
}

package dist

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"mudbscan/internal/chaos"
	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/mpi"
)

// chaosRetry keeps fault-plan runs fast: the Eventual plan's delays are
// ≤200µs, so a 1ms base ack timeout rarely fires spuriously, and the 14
// attempts dwarf the plan's burst cap of 2.
var chaosRetry = mpi.RetryPolicy{
	BaseTimeout: time.Millisecond,
	MaxTimeout:  10 * time.Millisecond,
	MaxAttempts: 14,
}

var chaosAlgos = []struct {
	name  string
	run   distAlgo
	brute bool // gives each border its smallest-id core neighbor, as Brute does
}{
	{"muDBSCAN-D", MuDBSCAND, true},
	{"PDSDBSCAN-D", PDSDBSCAND, false},
	{"GridDBSCAN-D", GridDBSCAND, false},
}

// TestChaosConformance is the headline of the fault-tolerance layer: under
// an eventually-delivering fault plan (drops, duplicates, reordering,
// delays, bit corruption — every class at once), every exact distributed
// algorithm at every rank count must produce output byte-identical to its
// clean-network run, which in turn is exact against brute-force DBSCAN.
// Five plan seeds per combination; datasets rotate through the PR 2
// conformance table so each (algorithm, ranks) pair sees several shapes.
func TestChaosConformance(t *testing.T) {
	datasets := conformanceDatasets()
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	type refKey struct {
		algo string
		ds   string
		p    int
	}
	refs := map[refKey]*clustering.Result{}
	for _, al := range chaosAlgos {
		for pi, p := range []int{1, 2, 4, 8} {
			for si, seed := range seeds {
				ds := datasets[(pi*len(seeds)+si)%len(datasets)]
				t.Run(fmt.Sprintf("%s/p=%d/seed=%d/%s", al.name, p, seed, ds.name), func(t *testing.T) {
					key := refKey{al.name, ds.name, p}
					ref := refs[key]
					if ref == nil {
						var err error
						ref, _, err = al.run(ds.pts, ds.eps, ds.minPts, p, Options{Seed: 7})
						if err != nil {
							t.Fatalf("clean reference run: %v", err)
						}
						want, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
						if err := bruteError(ds.pts, ds.eps, want, ref, al.brute); err != nil {
							t.Fatalf("clean reference not exact: %v", err)
						}
						refs[key] = ref
					}
					got, st, err := al.run(ds.pts, ds.eps, ds.minPts, p, Options{
						Seed:      7,
						Transport: chaos.New(chaos.Eventual(seed)),
						Retry:     chaosRetry,
					})
					if err != nil {
						t.Fatalf("chaos run: %v", err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("chaos run invalid: %v", err)
					}
					if !reflect.DeepEqual(ref.Labels, got.Labels) {
						t.Fatal("labels differ from the clean-network run")
					}
					if !reflect.DeepEqual(ref.Core, got.Core) {
						t.Fatal("core flags differ from the clean-network run")
					}
					if p > 1 && st.Comm.EnvelopeBytes == 0 {
						t.Fatal("hardened run must account envelope overhead")
					}
				})
			}
		}
	}
}

// TestChaosSerialExec covers the fault plan under the paper-table execution
// mode: the collective stage still crosses the faulty transport.
func TestChaosSerialExec(t *testing.T) {
	ds := conformanceDatasets()[0]
	want, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
	for _, seed := range []int64{1, 2} {
		got, _, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, 4, Options{
			Seed:      7,
			Exec:      ExecSerial,
			Transport: chaos.New(chaos.Eventual(seed)),
			Retry:     chaosRetry,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: not brute force's result (%v)", seed, clustering.Equivalent(want, got))
		}
	}
}

// TestCleanNetworkCounters asserts what the envelope protocol costs when
// nothing goes wrong: every algorithm under both schedules frames its
// messages (EnvelopeBytes > 0) and trips no reliability counter. Exactness
// is the conformance suites' job.
func TestCleanNetworkCounters(t *testing.T) {
	ds := conformanceDatasets()[3] // skewed-3d: imbalanced ranks, halo traffic
	for _, al := range chaosAlgos {
		for _, exec := range []Exec{ExecSerial, ExecConcurrent} {
			_, st, err := al.run(ds.pts, ds.eps, ds.minPts, 4, Options{Seed: 7, Exec: exec})
			if err != nil {
				t.Fatal(err)
			}
			if st.Comm.EnvelopeBytes == 0 {
				t.Fatalf("%s exec=%d: run accounted no envelope bytes", al.name, exec)
			}
			if st.Comm.Retransmits != 0 || st.Comm.CorruptDropped != 0 {
				t.Fatalf("%s exec=%d: clean network tripped reliability counters: %+v", al.name, exec, st.Comm)
			}
		}
	}
}

// TestChaosPermanentLoss asserts graceful degradation: a plan that cuts a
// link dead must terminate with a typed ErrRankLost — carrying partial
// stats, within the retry budget plus scheduling slack — instead of
// hanging.
func TestChaosPermanentLoss(t *testing.T) {
	retry := mpi.RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 4 * time.Millisecond, MaxAttempts: 6}
	ds := conformanceDatasets()[0]
	for _, p := range []int{2, 4} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("p=%d/seed=%d", p, seed), func(t *testing.T) {
				start := time.Now()
				res, st, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, p, Options{
					Seed:      7,
					Transport: chaos.New(chaos.PermanentLoss(seed, 0, 1)),
					Retry:     retry,
				})
				elapsed := time.Since(start)
				if !errors.Is(err, ErrRankLost) {
					t.Fatalf("want ErrRankLost, got %v", err)
				}
				if res != nil {
					t.Fatal("a failed run must not return a clustering")
				}
				if st == nil {
					t.Fatal("rank loss must surface partial stats")
				}
				if st.Comm.Timeouts == 0 {
					t.Fatalf("partial stats must carry the timeout counters: %+v", st.Comm)
				}
				// Budget plus generous slack for scheduler jitter under -race;
				// the point is "bounded", not "fast".
				if limit := retry.Budget() + 5*time.Second; elapsed > limit {
					t.Fatalf("rank loss took %v, beyond %v", elapsed, limit)
				}
			})
		}
	}
}

// TestChaosSeedSweep is the CI sweep hook: CHAOS_SEEDS (default 5) fault
// plans against μDBSCAN-D at 4 ranks, each asserted exact against brute
// force. CI runs it with a larger budget than the default test run.
func TestChaosSeedSweep(t *testing.T) {
	seeds := 5
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		seeds = v
	}
	ds := conformanceDatasets()[1]
	want, _ := dbscan.Brute(ds.pts, ds.eps, ds.minPts)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		got, _, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, 4, Options{
			Seed:      7,
			Transport: chaos.New(chaos.Eventual(seed)),
			Retry:     chaosRetry,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: not brute force's result (%v)", seed, clustering.Equivalent(want, got))
		}
	}
}

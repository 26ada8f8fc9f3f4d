package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
)

// requireSameResult asserts byte-identical clustering output.
func requireSameResult(t *testing.T, ctx string, a, b *clustering.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatalf("%s: labels differ", ctx)
	}
	if !reflect.DeepEqual(a.Core, b.Core) {
		t.Fatalf("%s: core flags differ", ctx)
	}
	if a.NumClusters != b.NumClusters {
		t.Fatalf("%s: clusters %d vs %d", ctx, a.NumClusters, b.NumClusters)
	}
}

// TestConcurrentDeterministic: the concurrent driver must produce identical
// clustering AND identical work accounting on every run with the same seed,
// regardless of goroutine scheduling. Run under -race in CI.
func TestConcurrentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := blobs(rng, 800, 3, 4, 0.3, 0.2)
	for _, p := range []int{2, 4, 8} {
		var ref *clustering.Result
		var refSt *Stats
		for run := 0; run < 3; run++ {
			got, st, err := MuDBSCAND(pts, 0.5, 5, p, Options{Seed: 9, Exec: ExecConcurrent})
			if err != nil {
				t.Fatalf("p=%d run=%d: %v", p, run, err)
			}
			if run == 0 {
				ref, refSt = got, st
				continue
			}
			requireSameResult(t, fmt.Sprintf("p=%d run=%d", p, run), ref, got)
			if st.HaloPoints != refSt.HaloPoints || st.MergeBytes != refSt.MergeBytes || st.NumMCs != refSt.NumMCs ||
				st.Queries != refSt.Queries || st.QueriesSaved != refSt.QueriesSaved {
				t.Fatalf("p=%d run=%d: work accounting not deterministic:\n%+v\nvs\n%+v",
					p, run, refSt, st)
			}
		}
	}
}

// TestConcurrentMatchesSerial: at every rank count the concurrent driver
// must match the serial-simulation driver byte for byte — same labels, core
// flags and cluster count, and the same deterministic work counters.
func TestConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := blobs(rng, 900, 3, 4, 0.3, 0.2)
	for _, p := range []int{1, 2, 4, 8} {
		ser, serSt, err := MuDBSCAND(pts, 0.5, 5, p, Options{Seed: 4, Exec: ExecSerial})
		if err != nil {
			t.Fatalf("serial p=%d: %v", p, err)
		}
		con, conSt, err := MuDBSCAND(pts, 0.5, 5, p, Options{Seed: 4, Exec: ExecConcurrent})
		if err != nil {
			t.Fatalf("concurrent p=%d: %v", p, err)
		}
		requireSameResult(t, fmt.Sprintf("p=%d serial vs concurrent", p), ser, con)
		if conSt.HaloPoints != serSt.HaloPoints {
			t.Fatalf("p=%d halo points %d vs %d", p, conSt.HaloPoints, serSt.HaloPoints)
		}
		if conSt.MergeBytes != serSt.MergeBytes {
			t.Fatalf("p=%d merge bytes %d vs %d", p, conSt.MergeBytes, serSt.MergeBytes)
		}
		if conSt.NumMCs != serSt.NumMCs || conSt.Queries != serSt.Queries ||
			conSt.QueriesSaved != serSt.QueriesSaved {
			t.Fatalf("p=%d work counters differ:\n%+v\nvs\n%+v", p, conSt, serSt)
		}
		if serSt.WallClock <= 0 || conSt.WallClock <= 0 {
			t.Fatalf("p=%d wall clock not populated: serial=%v concurrent=%v",
				p, serSt.WallClock, conSt.WallClock)
		}
		if conSt.Phases.Total() <= 0 {
			t.Fatalf("p=%d concurrent simulated total not populated", p)
		}
	}
}

// TestConcurrentMatchesSerialAllBaselines: the exact baselines that share
// the distributed skeleton must also be execution-mode independent.
func TestConcurrentMatchesSerialAllBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := blobs(rng, 600, 2, 4, 0.3, 0.2)
	for _, al := range []struct {
		name string
		run  distAlgo
	}{
		{"PDSDBSCAN-D", PDSDBSCAND},
		{"GridDBSCAN-D", GridDBSCAND},
		{"HPDBSCAN", HPDBSCAN},
	} {
		ser, _, err := al.run(pts, 0.5, 5, 4, Options{Seed: 2, Exec: ExecSerial})
		if err != nil {
			t.Fatalf("%s serial: %v", al.name, err)
		}
		con, _, err := al.run(pts, 0.5, 5, 4, Options{Seed: 2, Exec: ExecConcurrent})
		if err != nil {
			t.Fatalf("%s concurrent: %v", al.name, err)
		}
		requireSameResult(t, al.name, ser, con)
	}
}

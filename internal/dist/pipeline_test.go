package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mudbscan/internal/core"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
)

// muLocal is μDBSCAN-D's local algorithm, the one function every schedule
// calls, for a test to wrap.
func muLocal(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult {
	return core.RunLocal(set, eps, minPts, localCount, core.Options{}, halo)
}

// gauge counts how many goroutines are inside a section at once.
type gauge struct{ cur, peak atomic.Int32 }

// enter makes the caller one occupant of the section, lingering long enough
// that any second occupant the schedule lets in is seen.
func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.peak.Load()
		if n <= m || g.peak.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
}

func (g *gauge) leave() { g.cur.Add(-1) }

// inside runs fn as one occupant of the section.
func (g *gauge) inside(fn func()) {
	g.enter()
	fn()
	g.leave()
}

// gauged wraps a local algorithm in the gauge. The gauge counts compute, so
// a rank leaves it across the flag swap, where it waits on its peers.
func gauged(g *gauge, algo localFn) localFn {
	return func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) (lr *core.LocalResult) {
		swap := halo.Swap
		halo.Swap = func(isCore []bool) {
			g.leave()
			swap(isCore)
			g.enter()
		}
		g.inside(func() { lr = algo(set, eps, minPts, localCount, halo) })
		return lr
	}
}

// TestSerialScheduleIsolation: under ExecSerial no two ranks are ever inside
// a compute section together — not in the local clustering (through
// runDistributed, so the Exec wiring is what is tested) and not in the sinks
// either (runRank under a shared turnstile with gauged sinks). The same gauge
// under ExecConcurrent sees ranks overlap, so it can tell. Run under -race.
func TestSerialScheduleIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := blobs(rng, 1200, 3, 4, 0.3, 0.2)
	want, _ := dbscan.Brute(pts, 0.5, 5)
	for _, p := range []int{4, 8} {
		var g gauge
		got, _, err := runDistributed(pts, 0.5, 5, p, Options{Seed: 3, Exec: ExecSerial}, gauged(&g, muLocal))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: gauged serial run differs from brute force", p)
		}
		if peak := g.peak.Load(); peak != 1 {
			t.Errorf("p=%d ExecSerial: %d ranks inside the local run at once, want 1", p, peak)
		}

		g = gauge{}
		turn := &turnstile{}
		own := func([]int64, []bool) {}
		union := func([][2]int64) { g.inside(func() {}) }
		if _, err := mpi.Run(p, func(c *mpi.Comm) error {
			_, err := runRank(c, pts, 0.5, 5, Options{Seed: 3}, gauged(&g, muLocal), turn, own, union)
			return err
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if peak := g.peak.Load(); peak != 1 {
			t.Errorf("p=%d shared turnstile: %d ranks inside local run or union sink at once, want 1", p, peak)
		}

		g = gauge{}
		if _, _, err := runDistributed(pts, 0.5, 5, p, Options{Seed: 3, Exec: ExecConcurrent}, gauged(&g, muLocal)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if peak := g.peak.Load(); peak < 2 {
			t.Errorf("p=%d ExecConcurrent: gauge never saw two ranks overlap; it cannot witness isolation", p)
		}
	}
}

// TestCommParityAcrossSchedules: both in-process schedules send the same
// messages — partition, halo and flag traffic alike — so on a clean transport
// Stats.Comm agrees to the byte and to the message for every exact algorithm.
func TestCommParityAcrossSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := blobs(rng, 900, 3, 4, 0.3, 0.2)
	algos := []struct {
		name string
		run  distAlgo
	}{
		{"muDBSCAN-D", MuDBSCAND},
		{"PDSDBSCAN-D", PDSDBSCAND},
		{"GridDBSCAN-D", GridDBSCAND},
		{"HPDBSCAN", HPDBSCAN},
	}
	msgs := func(st *Stats) (n int64) {
		for _, m := range st.Comm.MsgsSent {
			n += m
		}
		return n
	}
	for _, al := range algos {
		_, serial, err := al.run(pts, 0.5, 5, 4, Options{Seed: 5, Exec: ExecSerial})
		if err != nil {
			t.Fatalf("%s serial: %v", al.name, err)
		}
		_, conc, err := al.run(pts, 0.5, 5, 4, Options{Seed: 5, Exec: ExecConcurrent})
		if err != nil {
			t.Fatalf("%s concurrent: %v", al.name, err)
		}
		if serial.HaloPoints == 0 {
			t.Fatalf("%s: no halo copies, the flag traffic is not exercised", al.name)
		}
		if s, c := serial.Comm.TotalBytes(), conc.Comm.TotalBytes(); s != c {
			t.Errorf("%s: Comm bytes serial %d, concurrent %d (halo copies: %d)", al.name, s, c, serial.HaloPoints)
		}
		if s, c := msgs(serial), msgs(conc); s != c {
			t.Errorf("%s: Comm messages serial %d, concurrent %d", al.name, s, c)
		}
	}
}

// TestMergeExcludesStragglerWait: a rank whose own flags are exact early
// blocks in the flag swap until the slowest rank's flags arrive. That wait
// is the straggler's local time; Phases.PostProcessing counts the
// computation after the swap only (μDBSCAN-D's step 4, a baseline's settling
// and closing pass), and Phases.Merge the merge's. The straggler is late
// before its local run, at the end of μDBSCAN-D's step 3, or at the end of
// GridDBSCAN-D's loop, each time just before it sends its flags.
func TestMergeExcludesStragglerWait(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := blobs(rng, 800, 3, 4, 0.3, 0.2)
	const eps, delay = 0.5, 300 * time.Millisecond
	lateSwap := func(algo localFn) localFn {
		return func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult {
			swap := halo.Swap
			halo.Swap = func(isCore []bool) {
				time.Sleep(delay)
				swap(isCore)
			}
			return algo(set, eps, minPts, localCount, halo)
		}
	}
	side, radius := denseGrid(eps, 3)
	grid := gridLocal(side, radius, linkDenseCells) // GridDBSCAN-D's at d = 3
	for _, arm := range []struct {
		name            string
		algo, straggler localFn
	}{
		{"before the local run", muLocal, func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult {
			time.Sleep(delay)
			return muLocal(set, eps, minPts, localCount, halo)
		}},
		{"in steps 1-3", muLocal, lateSwap(muLocal)},
		{"in GridDBSCAN-D's loop", grid, lateSwap(grid)},
	} {
		var calls atomic.Int32
		straggling := func(set *geom.PointSet, eps float64, minPts, localCount int, halo core.Halo) *core.LocalResult {
			if calls.Add(1) == 1 {
				return arm.straggler(set, eps, minPts, localCount, halo)
			}
			return arm.algo(set, eps, minPts, localCount, halo)
		}
		_, st, err := runDistributed(pts, eps, 5, 4, Options{Seed: 3, Exec: ExecConcurrent}, straggling)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if st.WallClock < delay {
			t.Fatalf("%s: wall clock %v: the straggler did not straggle", arm.name, st.WallClock)
		}
		if st.Phases.PostProcessing >= delay/2 {
			t.Errorf("%s: Phases.PostProcessing = %v includes the wait for the straggler's flags", arm.name, st.Phases.PostProcessing)
		}
		if st.Phases.Merge >= delay/2 {
			t.Errorf("%s: Phases.Merge = %v includes the wait for the straggler's flags", arm.name, st.Phases.Merge)
		}
	}
}

// TestMergeContributionCodec: the gather payload round-trips, rankOut's slot
// order included, and every malformed table is refused rather than indexed.
func TestMergeContributionCodec(t *testing.T) {
	var fields [mergeStatFields]int64
	for i := range fields {
		fields[i] = int64(100 + i)
	}
	out := decodeRankOut(fields)
	if out.encode() != fields {
		t.Fatalf("rankOut slots do not round-trip: %v -> %+v -> %v", fields, out, out.encode())
	}
	if out.queries != 100 || out.mergeBytes != 104 || out.phases.Partition != 105 || out.phases.Merge != 111 {
		t.Fatalf("rankOut slot order moved (it is wire format): %+v", out)
	}

	for _, lc := range []int{0, 1, 63, 64, 65, 130} {
		m := mergeContribution{localCount: lc, gids: make([]int64, lc), core: make([]bool, lc), out: out}
		for i := 0; i < lc; i++ {
			m.gids[i] = int64(7*i + 1)
			m.core[i] = i%3 == 0
		}
		for e := 0; e < lc/2; e++ {
			m.edges = append(m.edges, [2]int64{int64(e), int64(e + 1)})
		}
		got, ok := decodeContribution(m.encode())
		if !ok {
			t.Fatalf("localCount=%d: own encoding refused", lc)
		}
		if got.localCount != lc || got.out != out || !reflect.DeepEqual(got.core, m.core) ||
			fmt.Sprint(got.gids) != fmt.Sprint(m.gids) || fmt.Sprint(got.edges) != fmt.Sprint(m.edges) {
			t.Fatalf("localCount=%d: round trip changed the contribution", lc)
		}
	}

	good := mergeContribution{localCount: 3, gids: []int64{4, 5, 6}, core: []bool{true, false, true},
		edges: [][2]int64{{4, 5}}, out: out}.encode()
	with := func(slot int, val int64) []int64 {
		v := append([]int64(nil), good...)
		v[slot] = val
		return v
	}
	// 14 + lc + ceil(lc/64) + 2·ne wraps around int64 to exactly len(v):
	// the smallest lc whose share reaches 2^63, and ne = 2^62 for the rest.
	lc := uint64(1<<63) / 65 * 64
	for lc+(lc+63)/64 < 1<<63 {
		lc++
	}
	wrapped := make([]int64, 2+mergeStatFields+int(lc+(lc+63)/64-1<<63))
	wrapped[0], wrapped[1] = int64(lc), 1<<62
	malformed := map[string][]int64{
		"empty":                      nil,
		"header only":                good[:2],
		"truncated stats":            good[:2+mergeStatFields-1],
		"truncated body":             good[:len(good)-1],
		"trailing word":              append(append([]int64(nil), good...), 0),
		"negative point count":       with(0, -1),
		"negative edge count":        with(1, -1),
		"point count beyond payload": with(0, 4),
		"edge count beyond payload":  with(1, 2),
		"edge count overflow":        with(1, 1<<62),
		"counts wrapping to length":  wrapped,
	}
	for name, v := range malformed {
		if _, ok := decodeContribution(v); ok {
			t.Errorf("%s: malformed payload accepted", name)
		}
	}
}

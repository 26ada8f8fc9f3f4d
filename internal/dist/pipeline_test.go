package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mudbscan/internal/clustering"
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
// runDistributed, so the Exec wiring is what is tested) and not in rank 0's
// decode and apply either (gather under a shared turnstile, fed by peers
// that send from inside a gauged section and linger there: a gather that
// applied a payload outside the turnstile would return with its sender still
// inside), nor in a peer's encode of its payload (held off while another
// rank holds the turnstile, and counted in the Merge its report carries).
// The same gauge under ExecConcurrent sees ranks overlap, so it can tell.
// Run under -race.
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
		var inside int32
		var res *clustering.Result
		if _, err := mpi.Run(p, func(c *mpi.Comm) error {
			r := int64(c.Rank())
			m := mergeContribution{localCount: 1, gids: []int64{r}, core: []bool{true}}
			if r != 0 {
				m.edges = [][2]int64{{r, r - 1}}
				turn.do(func() {
					c.Send(0, mergeTag, mpi.EncodeInt64s(m.encode()))
					g.inside(func() {})
				})
				return nil
			}
			var err error
			res, err = gather(c, m, c.Size(), turn, &Stats{})
			inside = g.cur.Load()
			return err
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.NumClusters != 1 {
			t.Fatalf("p=%d: gather linked the chain of %d points into %d clusters, want 1", p, p, res.NumClusters)
		}
		if inside != 0 {
			t.Errorf("p=%d shared turnstile: gather returned with %d ranks inside a compute section, want 0", p, inside)
		}

		g = gauge{}
		if _, _, err := runDistributed(pts, 0.5, 5, p, Options{Seed: 3, Exec: ExecConcurrent}, gauged(&g, muLocal)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if peak := g.peak.Load(); peak < 2 {
			t.Errorf("p=%d ExecConcurrent: gauge never saw two ranks overlap; it cannot witness isolation", p)
		}
	}

	const n = 1 << 14
	m := mergeContribution{localCount: n, gids: make([]int64, n), core: make([]bool, n), edges: make([][2]int64, n),
		out: rankOut{queries: 7, phases: PhaseTimes{Merge: time.Second}}}
	turn := &turnstile{}
	held, release := make(chan struct{}), make(chan struct{})
	go turn.do(func() { close(held); <-release })
	<-held
	sent := make(chan []byte)
	go func() { sent <- m.payload(turn) }()
	select {
	case <-sent:
		t.Fatal("a peer encoded its merge payload while another rank held the turnstile")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	got, ok := decodeContribution(mpi.DecodeInt64s(<-sent))
	if !ok || got.localCount != n || len(got.edges) != n || got.out.queries != 7 {
		t.Fatalf("payload decodes to %d owned, %d edges, %d queries (ok=%v)", got.localCount, len(got.edges), got.out.queries, ok)
	}
	if got.out.phases.Merge <= time.Second {
		t.Errorf("payload reports Merge %v: the encode's time is not in it", got.out.phases.Merge)
	}
}

// TestCommParityAcrossSchedules: every schedule sends the same messages —
// partition, halo, flag and gather traffic alike — so on a clean transport
// the bytes and messages each rank sent agree across both in-process
// schedules and a loopback socket world, for every exact algorithm. In the
// socket world each process counts only its own sends, so rank r's share is
// read off process r.
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
	const p = 4
	sum := func(v []int64) (n int64) {
		for _, x := range v {
			n += x
		}
		return n
	}
	for _, al := range algos {
		_, serial, err := al.run(pts, 0.5, 5, p, Options{Seed: 5, Exec: ExecSerial})
		if err != nil {
			t.Fatalf("%s serial: %v", al.name, err)
		}
		_, conc, err := al.run(pts, 0.5, 5, p, Options{Seed: 5, Exec: ExecConcurrent})
		if err != nil {
			t.Fatalf("%s concurrent: %v", al.name, err)
		}
		if serial.HaloPoints == 0 {
			t.Fatalf("%s: no halo copies, the flag traffic is not exercised", al.name)
		}
		_, procs := runOverSockets(t, "tcp", al.run, pts, 0.5, 5, p, nil, Options{Seed: 5, Remote: &Remote{}})
		var netBytes, netMsgs int64
		for r, st := range procs {
			netBytes += st.Comm.BytesSent[r]
			netMsgs += st.Comm.MsgsSent[r]
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"bytes, serial vs concurrent", serial.Comm.TotalBytes(), conc.Comm.TotalBytes()},
			{"bytes, sockets vs concurrent", netBytes, conc.Comm.TotalBytes()},
			{"messages, serial vs concurrent", sum(serial.Comm.MsgsSent), sum(conc.Comm.MsgsSent)},
			{"messages, sockets vs concurrent", netMsgs, sum(conc.Comm.MsgsSent)},
		} {
			if c.got != c.want {
				t.Errorf("%s: Comm %s: %d vs %d (halo copies: %d)", al.name, c.what, c.got, c.want, serial.HaloPoints)
			}
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

// TestGatherExcludesPeerWait: rank 0's wait for a late peer's contribution
// is in no timer. Each peer sends its contribution a while after rank 0
// starts gathering; rank 0's Merge counts its decode and apply alone, under
// both in-process schedules.
func TestGatherExcludesPeerWait(t *testing.T) {
	const p, delay = 4, 200 * time.Millisecond
	for _, turn := range []*turnstile{nil, {}} {
		st := &Stats{}
		if _, err := mpi.Run(p, func(c *mpi.Comm) error {
			r := int64(c.Rank())
			m := mergeContribution{localCount: 1, gids: []int64{r}, core: []bool{true}}
			if r != 0 {
				time.Sleep(delay)
				c.Send(0, mergeTag, mpi.EncodeInt64s(m.encode()))
				return nil
			}
			_, err := gather(c, m, p, turn, st)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if st.Phases.Merge >= delay/2 {
			t.Errorf("turnstile %v: Phases.Merge = %v includes the wait for the peers' payloads", turn != nil, st.Phases.Merge)
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

package dist

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mudbscan/internal/chaos"
	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi"
	"mudbscan/internal/mpi/nettrans"
)

// listenWorld binds p loopback listeners up front (no reserve/rebind race)
// and returns them with their address list. Unix socket paths come from a
// short private tempdir — sun_path is only ~100 bytes and subtest names make
// t.TempDir too long.
func listenWorld(t *testing.T, network string, p int) ([]net.Listener, []string) {
	t.Helper()
	var dir string
	if network == "unix" {
		var err error
		dir, err = os.MkdirTemp("", "nt")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
	}
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = fmt.Sprintf("%s/%d.sock", dir, i)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			t.Fatalf("listen %s: %v", network, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// runOverSockets executes algo as a p-rank world over real loopback sockets:
// one goroutine per rank, each with its own transport and its own world —
// nothing shared but the wire. Returns rank 0's result and every process's
// stats, indexed by rank: rank 0's aggregate the world's reports, and each
// Comm is that process's own share.
func runOverSockets(t *testing.T, network string, algo distAlgo, pts []geom.Point, eps float64, minPts, p int, decorate func(rank int, tr *nettrans.Transport) mpi.RemoteTransport, opts Options) (*clustering.Result, []*Stats) {
	t.Helper()
	lns, addrs := listenWorld(t, network, p)
	results := make([]*clustering.Result, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := nettrans.New(nettrans.Config{Network: network, Rank: r, Peers: addrs, Listener: lns[r]})
			if err != nil {
				errs[r] = err
				lns[r].Close()
				return
			}
			defer tr.Drain()
			var remote mpi.RemoteTransport = tr
			if decorate != nil {
				remote = decorate(r, tr)
			}
			o := opts
			o.Remote = &Remote{Rank: r, Transport: remote, Linger: o.Remote.Linger}
			results[r], stats[r], errs[r] = algo(pts, eps, minPts, p, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if results[r] != nil {
			t.Fatalf("rank %d returned a result; only rank 0 owns it", r)
		}
	}
	if results[0] == nil {
		t.Fatal("rank 0 returned no result")
	}
	return results[0], stats
}

// TestNetworkedConformance is the loopback conformance suite: every exact
// distributed algorithm, dataset and rank count must produce byte-identical
// labels and core flags over TCP and unix sockets to what the in-process
// concurrent driver computes — the socket transport is pure plumbing.
func TestNetworkedConformance(t *testing.T) {
	algos := []struct {
		name string
		run  distAlgo
	}{
		{"muDBSCAN-D", MuDBSCAND},
		{"PDSDBSCAN-D", PDSDBSCAND},
		{"GridDBSCAN-D", GridDBSCAND},
	}
	for _, ds := range conformanceDatasets() {
		for _, al := range algos {
			for _, p := range []int{1, 2, 4, 8} {
				want, _, err := al.run(ds.pts, ds.eps, ds.minPts, p, Options{Seed: 7, Exec: ExecConcurrent})
				if err != nil {
					t.Fatal(err)
				}
				networks := []string{"tcp", "unix"}
				if testing.Short() && p > 2 {
					networks = []string{"tcp"}
				}
				for _, network := range networks {
					t.Run(fmt.Sprintf("%s/%s/p=%d/%s", ds.name, al.name, p, network), func(t *testing.T) {
						got, _ := runOverSockets(t, network, al.run, ds.pts, ds.eps, ds.minPts, p, nil,
							Options{Seed: 7, Remote: &Remote{}})
						if err := got.Validate(); err != nil {
							t.Fatalf("invalid: %v", err)
						}
						if !reflect.DeepEqual(want.Labels, got.Labels) {
							t.Fatal("networked labels differ from in-process concurrent labels")
						}
						if !reflect.DeepEqual(want.Core, got.Core) {
							t.Fatal("networked core flags differ from in-process concurrent core flags")
						}
						if want.NumClusters != got.NumClusters {
							t.Fatalf("clusters: in-process %d, networked %d", want.NumClusters, got.NumClusters)
						}
					})
				}
			}
		}
	}
}

// TestNetworkedStatsAggregated spot-checks that rank 0 aggregates algorithm
// counters across the world: a 4-rank networked run must report the same
// query totals as the same run in-process.
func TestNetworkedStatsAggregated(t *testing.T) {
	ds := conformanceDatasets()[0]
	_, want, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, 4, Options{Seed: 7, Exec: ExecConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	_, all := runOverSockets(t, "tcp", MuDBSCAND, ds.pts, ds.eps, ds.minPts, 4, nil,
		Options{Seed: 7, Remote: &Remote{}})
	got := all[0]
	if got.Queries != want.Queries || got.NumMCs != want.NumMCs || got.HaloPoints != want.HaloPoints {
		t.Fatalf("aggregated stats diverge: got queries=%d mcs=%d halo=%d, want %d/%d/%d",
			got.Queries, got.NumMCs, got.HaloPoints, want.Queries, want.NumMCs, want.HaloPoints)
	}
	if got.Comm.TotalBytes() == 0 {
		t.Fatal("networked run booked no communication")
	}
}

// TestNetworkedChaosConformance runs the fault lottery over real loopback
// sockets: each rank's outbound frames pass a deterministic drop/duplicate/
// corrupt/reorder plan before hitting the wire, and the hardened protocol
// must still deliver byte-identical labels. Linger keeps finished ranks
// re-acking retransmissions whose acks the lottery ate.
func TestNetworkedChaosConformance(t *testing.T) {
	ds := conformanceDatasets()[1]
	retry := mpi.RetryPolicy{}
	want, _, err := MuDBSCAND(ds.pts, ds.eps, ds.minPts, 4, Options{Seed: 7, Exec: ExecConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			got, _ := runOverSockets(t, "tcp", MuDBSCAND, ds.pts, ds.eps, ds.minPts, 4,
				func(rank int, tr *nettrans.Transport) mpi.RemoteTransport {
					return chaos.Remote(chaos.Eventual(seed*100+int64(rank)), tr)
				},
				Options{Seed: 7, Remote: &Remote{Linger: retry.Budget()}})
			if !reflect.DeepEqual(want.Labels, got.Labels) {
				t.Fatal("labels diverged under socket chaos")
			}
			if !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatal("core flags diverged under socket chaos")
			}
		})
	}
}

// stalledRankEnv gates TestHelperStalledRank: the kill test re-executes the
// test binary as the victim rank process.
const stalledRankEnv = "MUDBSCAN_STALLED_RANK_HELPER"

// TestHelperStalledRank is not a test: re-executed as a child process, it
// brings up a rank's transport (so the world's rendezvous succeeds), accepts
// and drops every frame without ever acknowledging, announces readiness, and
// waits to be killed.
func TestHelperStalledRank(t *testing.T) {
	spec := os.Getenv(stalledRankEnv)
	if spec == "" {
		t.Skip("helper process for the kill test")
	}
	parts := strings.SplitN(spec, ";", 2)
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr, err := nettrans.New(nettrans.Config{Network: "unix", Rank: rank, Peers: strings.Split(parts[1], ",")})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr.Bind(func(int, mpi.Message) {}, func(int) {})
	fmt.Println("ready")
	os.Stdout.Sync()
	select {} // hold the rank open until SIGKILL
}

// TestKilledRankProcessSurfacesRankLost is the acceptance test for kill
// detection across real process boundaries: rank 3 is a separate OS process
// that is SIGKILLed; every surviving rank must surface a typed ErrRankLost
// within the retry budget instead of hanging.
func TestKilledRankProcessSurfacesRankLost(t *testing.T) {
	const p = 4
	victim := p - 1
	_, addrs := listenWorldUnixClosed(t, p)
	retry := mpi.RetryPolicy{BaseTimeout: 5 * time.Millisecond, MaxTimeout: 25 * time.Millisecond, MaxAttempts: 10}

	cmd := exec.Command(os.Args[0], "-test.run=TestHelperStalledRank$", "-test.v")
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d;%s", stalledRankEnv, victim, strings.Join(addrs, ",")))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "ready" {
			ready = true
			break
		}
	}
	if !ready {
		t.Fatal("victim rank process never became ready")
	}

	// Pre-establish each survivor's link to the victim while it is alive, so
	// post-kill redials are the fail-fast kind and the retry budget — not the
	// rendezvous budget — bounds detection.
	pts := blobs(rand.New(rand.NewSource(31)), 200, 2, 3, 0.3, 0.2)
	survivors := make([]*nettrans.Transport, victim)
	for r := 0; r < victim; r++ {
		tr, err := nettrans.New(nettrans.Config{Network: "unix", Rank: r, Peers: addrs, DialTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Drain()
		tr.Deliver(r, victim, mpi.Message{Tag: 0, Data: []byte("warmup")}, nil)
		survivors[r] = tr
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	start := time.Now()
	errs := make([]error, victim)
	var wg sync.WaitGroup
	for r := 0; r < victim; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, _, errs[r] = MuDBSCAND(pts, 0.5, 5, p, Options{
				Seed:   7,
				Retry:  retry,
				Remote: &Remote{Rank: r, Transport: survivors[r]},
			})
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for r, err := range errs {
		if !errors.Is(err, ErrRankLost) {
			t.Fatalf("survivor rank %d: err = %v, want ErrRankLost", r, err)
		}
	}
	if bound := retry.Budget() + 5*time.Second; elapsed > bound {
		t.Fatalf("kill detection took %v, beyond budget-derived bound %v", elapsed, bound)
	}
}

// listenWorldUnixClosed reserves p unix socket paths without holding
// listeners (the victim child process must bind its own).
func listenWorldUnixClosed(t *testing.T, p int) ([]net.Listener, []string) {
	t.Helper()
	addrs, cleanup, err := nettrans.ReserveAddrs("unix", p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return nil, addrs
}

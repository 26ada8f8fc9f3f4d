package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// memHub wires p in-memory RemoteTransports together so a multi-process
// world can be exercised inside one test process: each rank gets its own
// transport (and its own world, links, mailboxes — nothing shared), and
// frames cross the hub synchronously, like a nil Transport but across
// worlds. Shutdown(false) fans peerDown out to every other transport, the
// in-memory analogue of the socket transport's abort goodbye.
type memHub struct {
	trs []*memRemote
}

func newMemHub(p int) *memHub {
	h := &memHub{trs: make([]*memRemote, p)}
	for i := range h.trs {
		h.trs[i] = &memRemote{hub: h, rank: i, bound: make(chan struct{}), stop: make(chan struct{})}
	}
	return h
}

type memRemote struct {
	hub      *memHub
	rank     int
	bound    chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	downOnce []sync.Once

	mu       sync.Mutex
	ingress  func(from int, m Message)
	peerDown func(rank int)
}

var _ RemoteTransport = (*memRemote)(nil)

func (t *memRemote) Bind(ingress func(from int, m Message), peerDown func(rank int)) {
	t.mu.Lock()
	t.ingress = ingress
	t.peerDown = peerDown
	t.downOnce = make([]sync.Once, len(t.hub.trs))
	t.mu.Unlock()
	close(t.bound)
}

func (t *memRemote) Deliver(from, to int, m Message, deliver func(Message)) {
	if to == t.rank {
		deliver(m)
		return
	}
	peer := t.hub.trs[to]
	// A frame for an unbound or closed peer is dropped, like a socket write
	// that never connects or lands on a closed connection.
	select {
	case <-peer.bound:
	case <-peer.stop:
		return
	case <-t.stop:
		return
	}
	select {
	case <-peer.stop:
		return
	default:
	}
	peer.mu.Lock()
	ingress := peer.ingress
	peer.mu.Unlock()
	ingress(from, m)
}

func (t *memRemote) Shutdown(clean bool) {
	t.stopOnce.Do(func() {
		close(t.stop)
		if clean {
			return
		}
		for _, peer := range t.hub.trs {
			if peer == t {
				continue
			}
			peer.reportDown(t.rank)
		}
	})
}

func (t *memRemote) Drain() { t.Shutdown(true) }

func (t *memRemote) reportDown(rank int) {
	// Wait for Bind rather than skip: the socket transport dials its abort
	// goodbye to peers it never connected to, so a rank that dies before a
	// slow-starting peer even bound must still be reported to it.
	select {
	case <-t.bound:
	case <-t.stop:
		return
	}
	t.mu.Lock()
	peerDown := t.peerDown
	t.mu.Unlock()
	t.downOnce[rank].Do(func() { peerDown(rank) })
}

// runRemoteWorld executes fn as a p-rank multi-process world over a memHub,
// one goroutine per rank, each with its own transport and RunRemote call.
func runRemoteWorld(t *testing.T, p int, retry RetryPolicy, fn func(c *Comm) error) []Stats {
	t.Helper()
	hub := newMemHub(p)
	stats := make([]Stats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r], errs[r] = RunRemote(RemoteOptions{
				Rank: r, Size: p, Transport: hub.trs[r], Retry: retry,
			}, fn)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return stats
}

// collectiveWorkload exercises every communication primitive the distributed
// drivers use: tagged ring send/recv, all-to-all, barrier-separated phases,
// bcast and allgather.
func collectiveWorkload(c *Comm) error {
	if err := ringExchange(c); err != nil {
		return err
	}
	p, rank := c.Size(), c.Rank()
	c.Barrier()

	root := p - 1
	var seed []byte
	if rank == root {
		seed = EncodeInt64s([]int64{42, int64(p)})
	}
	got := DecodeInt64s(c.Bcast(root, seed))
	if got[0] != 42 || got[1] != int64(p) {
		return fmt.Errorf("rank %d: bcast got %v", rank, got)
	}

	all := c.Allgather(EncodeInt64s([]int64{int64(rank * 7)}))
	for src, b := range all {
		if v := DecodeInt64s(b)[0]; v != int64(src*7) {
			return fmt.Errorf("rank %d: allgather from %d got %d", rank, src, v)
		}
	}

	send := make([][]byte, p)
	for dst := range send {
		send[dst] = EncodeInt64s([]int64{int64(rank*1000 + dst)})
	}
	recv := c.Alltoall(send)
	for src := range recv {
		if v := DecodeInt64s(recv[src])[0]; v != int64(src*1000+rank) {
			return fmt.Errorf("rank %d: alltoall from %d got %d", rank, src, v)
		}
	}
	c.Barrier()
	return nil
}

// TestRemoteWorldCollectives runs every primitive across process-separated
// worlds, each rank with its own transport, links and mailboxes.
func TestRemoteWorldCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runRemoteWorld(t, p, RetryPolicy{}, collectiveWorkload)
		})
	}
}

// TestRemoteWorldStatsMatchInProcess pins the accounting parity contract:
// a remote world must book exactly the bytes and messages the in-process
// world books for the same workload, or the distributed drivers' comm stats
// silently change meaning when they leave the single-process simulation.
func TestRemoteWorldStatsMatchInProcess(t *testing.T) {
	const p = 4
	want, err := Run(p, collectiveWorkload)
	if err != nil {
		t.Fatal(err)
	}
	remote := runRemoteWorld(t, p, RetryPolicy{}, collectiveWorkload)
	for r := 0; r < p; r++ {
		if got, exp := remote[r].BytesSent[r], want.BytesSent[r]; got != exp {
			t.Errorf("rank %d: BytesSent=%d, in-process %d", r, got, exp)
		}
		if got, exp := remote[r].MsgsSent[r], want.MsgsSent[r]; got != exp {
			t.Errorf("rank %d: MsgsSent=%d, in-process %d", r, got, exp)
		}
	}
}

// TestRemoteWorldSilentPeer kills detection of a stalled peer process: rank
// 1's transport accepts frames but its world never runs, so nothing is ever
// acknowledged and rank 0 must surface a typed RankLostError within the
// retry budget instead of hanging.
func TestRemoteWorldSilentPeer(t *testing.T) {
	hub := newMemHub(2)
	hub.trs[1].Bind(func(int, Message) {}, func(int) {}) // black hole: no acks, ever

	start := time.Now()
	_, err := RunRemote(RemoteOptions{Rank: 0, Size: 2, Transport: hub.trs[0], Retry: fastRetry},
		func(c *Comm) error {
			c.Send(1, 9, []byte("into the void"))
			c.Recv(1, 9)
			return nil
		})
	elapsed := time.Since(start)
	var rl *RankLostError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %v, want RankLostError", err)
	}
	if rl.Rank != 1 {
		t.Fatalf("lost rank = %d, want 1", rl.Rank)
	}
	if budget := fastRetry.Budget() + 2*time.Second; elapsed > budget {
		t.Fatalf("rank loss took %v, beyond budget %v", elapsed, budget)
	}
}

// TestRemoteWorldAbortCascades proves a failing rank takes the world down
// through the transport's abort goodbye: rank 1 errors out while rank 0 is
// blocked in a Recv that will never be satisfied; rank 0 must unblock with
// RankLostError rather than wait for its own (much longer) retry budget.
func TestRemoteWorldAbortCascades(t *testing.T) {
	hub := newMemHub(2)
	var wg sync.WaitGroup
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = RunRemote(RemoteOptions{Rank: 0, Size: 2, Transport: hub.trs[0], Retry: fastRetry},
			func(c *Comm) error {
				c.Recv(1, 3) // never sent
				return nil
			})
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = RunRemote(RemoteOptions{Rank: 1, Size: 2, Transport: hub.trs[1], Retry: fastRetry},
			func(c *Comm) error {
				return errors.New("rank 1 gives up")
			})
	}()
	wg.Wait()
	if errs[1] == nil || errs[1].Error() != "rank 1 gives up" {
		t.Fatalf("rank 1 err = %v", errs[1])
	}
	var rl *RankLostError
	if !errors.As(errs[0], &rl) {
		t.Fatalf("rank 0 err = %v, want RankLostError", errs[0])
	}
	if rl.Rank != 1 {
		t.Fatalf("rank 0 blames rank %d, want 1", rl.Rank)
	}
}

// TestRunRemoteValidation covers the option checks.
func TestRunRemoteValidation(t *testing.T) {
	hub := newMemHub(1)
	if _, err := RunRemote(RemoteOptions{Rank: 0, Size: 0, Transport: hub.trs[0]}, nil); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := RunRemote(RemoteOptions{Rank: 2, Size: 2, Transport: hub.trs[0]}, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := RunRemote(RemoteOptions{Rank: 0, Size: 1}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
}

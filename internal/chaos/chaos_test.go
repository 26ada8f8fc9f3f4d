package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mudbscan/internal/mpi"
)

// trace runs a fixed synchronous delivery schedule against a fresh Net and
// records, per attempt, what arrived (nil = dropped/held at that point).
func trace(plan Plan, attempts int) [][]byte {
	plan.Delay = 0 // keep the trace synchronous
	n := New(plan)
	var out [][]byte
	for i := 0; i < attempts; i++ {
		payload := []byte(fmt.Sprintf("frame-%03d", i))
		var got [][]byte
		n.Deliver(0, 1, mpi.Message{Tag: 1, Data: payload}, func(m mpi.Message) {
			got = append(got, m.Data)
		})
		if len(got) == 0 {
			out = append(out, nil)
		}
		for _, g := range got {
			out = append(out, g)
		}
	}
	n.Drain()
	return out
}

func flatten(tr [][]byte) []byte {
	var b bytes.Buffer
	for _, f := range tr {
		if f == nil {
			b.WriteString("<none>;")
			continue
		}
		b.Write(f)
		b.WriteByte(';')
	}
	return b.Bytes()
}

func TestSameSeedSameSchedule(t *testing.T) {
	a := flatten(trace(Eventual(7), 200))
	b := flatten(trace(Eventual(7), 200))
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds must produce identical per-link fault schedules")
	}
}

func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	a := flatten(trace(Eventual(1), 200))
	b := flatten(trace(Eventual(2), 200))
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced the same 200-attempt schedule")
	}
}

func TestLinksAreDecorrelated(t *testing.T) {
	plan := Eventual(3)
	plan.Delay = 0
	n := New(plan)
	deliveredOn := func(from, to int) int {
		count := 0
		for i := 0; i < 100; i++ {
			n.Deliver(from, to, mpi.Message{Tag: 1, Data: []byte{byte(i)}}, func(mpi.Message) { count++ })
		}
		return count
	}
	a, b := deliveredOn(0, 1), deliveredOn(1, 0)
	if a == 0 || b == 0 {
		t.Fatal("eventually-delivering plan starved a link entirely")
	}
}

func TestBurstCapForcesDelivery(t *testing.T) {
	plan := Plan{Seed: 1, Drop: 1.0, MaxBurst: 2}
	n := New(plan)
	delivered := 0
	for i := 0; i < 30; i++ {
		n.Deliver(0, 1, mpi.Message{Tag: 1, Data: []byte{byte(i)}}, func(mpi.Message) { delivered++ })
	}
	// Drop=1.0 means every attempt wants to drop, but the burst cap forces
	// every (MaxBurst+1)-th attempt through: 30 attempts / 3 = 10 clean.
	if delivered != 10 {
		t.Fatalf("burst cap should force 10 deliveries out of 30, got %d", delivered)
	}
}

func TestCorruptionCopiesBuffer(t *testing.T) {
	plan := Plan{Seed: 1, Corrupt: 1.0, MaxBurst: 1 << 30}
	n := New(plan)
	orig := []byte("retransmission buffer")
	keep := append([]byte(nil), orig...)
	n.Deliver(0, 1, mpi.Message{Tag: 1, Data: orig}, func(m mpi.Message) {
		if bytes.Equal(m.Data, keep) {
			t.Fatal("corruption did not flip any bit")
		}
	})
	if !bytes.Equal(orig, keep) {
		t.Fatal("corruption mutated the sender's buffer instead of a copy")
	}
}

func TestCutLinkBlackHoles(t *testing.T) {
	n := New(PermanentLoss(1, 0, 1))
	for i := 0; i < 50; i++ {
		n.Deliver(0, 1, mpi.Message{Tag: 1, Data: []byte{1}}, func(mpi.Message) {
			t.Fatal("cut link delivered a frame")
		})
	}
	// The reverse link stays alive. Deliveries may be delayed, so count
	// atomically and drain before reading.
	var alive int64
	for i := 0; i < 50; i++ {
		n.Deliver(1, 0, mpi.Message{Tag: 1, Data: []byte{1}}, func(mpi.Message) { atomic.AddInt64(&alive, 1) })
	}
	n.Drain()
	if atomic.LoadInt64(&alive) == 0 {
		t.Fatal("uncut reverse link never delivered")
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	plan := Plan{Seed: 1, Reorder: 1.0, MaxBurst: 1 << 30}
	n := New(plan)
	var got []string
	var mu sync.Mutex
	record := func(m mpi.Message) {
		mu.Lock()
		got = append(got, string(m.Data))
		mu.Unlock()
	}
	n.Deliver(0, 1, mpi.Message{Tag: 1, Data: []byte("a")}, record) // held
	n.Deliver(0, 1, mpi.Message{Tag: 1, Data: []byte("b")}, record) // held slot full: delivered, releases a
	n.Drain()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("want swapped delivery [b a], got %v", got)
	}
}

func TestDrainFlushesDelaysAndHeld(t *testing.T) {
	plan := Plan{Seed: 1, Delay: 1.0, MaxDelay: 5 * time.Millisecond, MaxBurst: 1 << 30}
	n := New(plan)
	delivered := make(chan struct{}, 8)
	for i := 0; i < 4; i++ {
		n.Deliver(0, 1, mpi.Message{Tag: 1, Data: []byte{byte(i)}}, func(mpi.Message) { delivered <- struct{}{} })
	}
	n.Drain()
	if len(delivered) != 4 {
		t.Fatalf("after Drain all %d delayed frames must be delivered, got %d", 4, len(delivered))
	}
}

// TestHardenedRuntimeOverChaos is the integration stress: an 8-rank ring +
// all-to-all workload over the full Eventual plan must complete with every
// payload intact, for several seeds.
func TestHardenedRuntimeOverChaos(t *testing.T) {
	retry := mpi.RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 10 * time.Millisecond, MaxAttempts: 14}
	for seed := int64(1); seed <= 5; seed++ {
		net := New(Eventual(seed))
		_, err := mpi.RunWithOptions(8, mpi.Options{Transport: net, Retry: retry}, func(c *mpi.Comm) error {
			p, rank := c.Size(), c.Rank()
			for round := 0; round < 3; round++ {
				send := make([][]byte, p)
				for dst := range send {
					send[dst] = mpi.EncodeInt64s([]int64{int64(rank*1000 + dst*10 + round)})
				}
				recv := c.Alltoall(send)
				for src := range recv {
					want := int64(src*1000 + rank*10 + round)
					if got := mpi.DecodeInt64s(recv[src])[0]; got != want {
						return fmt.Errorf("seed %d rank %d round %d: from %d got %d want %d", seed, rank, round, src, got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestHardenedRankLostOverCut asserts the graceful-degradation contract at
// the runtime level: a permanently cut link must surface a typed
// RankLostError once the retry budget is exhausted, not hang.
func TestHardenedRankLostOverCut(t *testing.T) {
	retry := mpi.RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 4 * time.Millisecond, MaxAttempts: 6}
	net := New(PermanentLoss(1, 0, 1))
	_, err := mpi.RunWithOptions(2, mpi.Options{Transport: net, Retry: retry}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("lost"))
			c.Recv(1, 4)
		} else {
			c.Recv(0, 3)
			c.Send(0, 4, []byte("reply"))
		}
		return nil
	})
	var rl *mpi.RankLostError
	if !errors.As(err, &rl) {
		t.Fatalf("want RankLostError over a cut link, got %v", err)
	}
}

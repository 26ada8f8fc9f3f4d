package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSingleRank(t *testing.T) {
	ran := false
	_, err := Run(1, func(c *Comm) error {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size wrong: %d/%d", c.Rank(), c.Size())
		}
		c.Barrier()
		ran = true
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestRunRejectsZeroRanks(t *testing.T) {
	if _, err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("expected error")
	}
}

func TestSendRecv(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 7, []byte{byte(c.Rank())})
		got := c.Recv(prev, 7)
		if len(got) != 1 || got[0] != byte(prev) {
			return fmt.Errorf("rank %d got %v from %d", c.Rank(), got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	var phase1 atomic.Int32
	_, err := Run(8, func(c *Comm) error {
		phase1.Add(1)
		c.Barrier()
		if got := phase1.Load(); got != 8 {
			return fmt.Errorf("rank %d passed barrier with phase1=%d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(5, func(c *Comm) error {
		var payload []byte
		if c.Rank() == 2 {
			payload = []byte("hello")
		}
		got := c.Bcast(2, payload)
		if string(got) != "hello" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		// A second collective must not see stale state.
		got2 := c.Bcast(0, []byte{byte(c.Rank())})
		if got2[0] != 0 {
			return fmt.Errorf("second bcast got %v", got2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	_, err := Run(6, func(c *Comm) error {
		all := c.Allgather([]byte{byte(c.Rank() * 10)})
		for r, b := range all {
			if len(b) != 1 || b[0] != byte(r*10) {
				return fmt.Errorf("rank %d slot %d = %v", c.Rank(), r, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		send := make([][]byte, c.Size())
		for dst := range send {
			send[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		recv := c.Alltoall(send)
		for src, b := range recv {
			if b[0] != byte(src) || b[1] != byte(c.Rank()) {
				return fmt.Errorf("rank %d from %d got %v", c.Rank(), src, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Failure injection: a rank that panics must abort the world without
// deadlocking ranks blocked in Recv or Barrier.
func TestRankPanicAbortsWorld(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("injected failure")
		}
		c.Recv(2, 1) // would block forever without abort
		return nil
	})
	if err == nil {
		t.Fatal("expected error from aborted world")
	}
}

func TestRankErrorAbortsBarrier(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		c.Barrier() // only 2 of 3 arrive; abort must release them
		c.Barrier()
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestTagMismatchPanicsCleanly(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("x"))
		} else {
			c.Recv(0, 6)
		}
		return nil
	})
	if err == nil {
		t.Fatal("tag mismatch should surface as error")
	}
}

func TestStatsAccounting(t *testing.T) {
	st, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSent[0] != 100 || st.MsgsSent[0] != 1 {
		t.Fatalf("rank0 stats: %d bytes %d msgs", st.BytesSent[0], st.MsgsSent[0])
	}
	if st.BytesSent[1] != 0 {
		t.Fatalf("rank1 sent nothing but counted %d", st.BytesSent[1])
	}
	if st.TotalBytes() != 100 {
		t.Fatalf("TotalBytes=%d", st.TotalBytes())
	}
}

func TestCodecRoundTrips(t *testing.T) {
	f := func(vals []float64) bool {
		got := DecodeFloat64s(EncodeFloat64s(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN-safe bitwise comparison via re-encode.
			a, b := EncodeFloat64s(vals[i:i+1]), EncodeFloat64s(got[i:i+1])
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(vals []int64) bool {
		got := DecodeInt64s(EncodeInt64s(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Stress: many ranks, many messages, all collectives interleaved — checks
// for races (run with -race) and lost messages.
func TestStressInterleaved(t *testing.T) {
	const p = 16
	_, err := Run(p, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for round := 0; round < 20; round++ {
			// Ring exchange with varying sizes.
			size := 1 + rng.Intn(64)
			c.Send((c.Rank()+1)%p, round, make([]byte, size))
			c.Recv((c.Rank()+p-1)%p, round)
			var sum int64
			for _, b := range c.Allgather(EncodeInt64s([]int64{1})) {
				sum += DecodeInt64s(b)[0]
			}
			if sum != p {
				return fmt.Errorf("round %d sum %d", round, sum)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

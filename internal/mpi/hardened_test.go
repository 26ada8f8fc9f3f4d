package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// fastRetry keeps fault tests quick without risking spurious rank loss.
var fastRetry = RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 10 * time.Millisecond, MaxAttempts: 12}

// ringExchange is the workload the protocol tests run: a tagged ring
// send/recv followed by an all-to-all, verifying every payload.
func ringExchange(c *Comm) error {
	p := c.Size()
	rank := c.Rank()
	next, prev := (rank+1)%p, (rank+p-1)%p
	if p > 1 {
		c.Send(next, 5, EncodeInt64s([]int64{int64(rank)}))
		got := DecodeInt64s(c.Recv(prev, 5))[0]
		if got != int64(prev) {
			return fmt.Errorf("rank %d: ring got %d want %d", rank, got, prev)
		}
	}
	send := make([][]byte, p)
	for dst := range send {
		send[dst] = EncodeInt64s([]int64{int64(rank*100 + dst)})
	}
	recv := c.Alltoall(send)
	for src := range recv {
		if got := DecodeInt64s(recv[src])[0]; got != int64(src*100+rank) {
			return fmt.Errorf("rank %d: alltoall from %d got %d", rank, src, got)
		}
	}
	return nil
}

func TestHardenedCleanNetwork(t *testing.T) {
	st, err := RunWithOptions(4, Options{Retry: fastRetry}, ringExchange)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retransmits != 0 || st.Timeouts != 0 || st.CorruptDropped != 0 || st.DupDropped != 0 {
		t.Fatalf("clean network should not trip reliability counters: %+v", st)
	}
	if st.EnvelopeBytes == 0 {
		t.Fatal("every message must account envelope overhead")
	}
}

// tagCountTransport delivers every frame faithfully and counts the frames
// it carried per tag.
type tagCountTransport struct {
	mu   sync.Mutex
	tags map[int]int
}

func (tr *tagCountTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	tr.mu.Lock()
	tr.tags[m.Tag]++
	tr.mu.Unlock()
	deliver(m)
}

// TestCollectivesCrossTheTransport pins the one delivery path: Barrier,
// Bcast and Allgather are messages like any other, so a transport — and
// with it any fault plan — sees their frames and their acks.
func TestCollectivesCrossTheTransport(t *testing.T) {
	const p = 4
	tr := &tagCountTransport{tags: map[int]int{}}
	_, err := RunWithOptions(p, Options{Transport: tr}, func(c *Comm) error {
		c.Barrier()
		c.Bcast(1, []byte("root"))
		c.Allgather([]byte{byte(c.Rank())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name   string
		tag, n int
	}{
		{"Barrier", barrierTag, 2 * (p - 1)},
		{"Bcast", bcastTag, p - 1},
		{"Allgather", allgatherTag, p * (p - 1)},
		{"acks", ackTag, 2*(p-1) + (p - 1) + p*(p-1)},
	} {
		if got := tr.tags[want.tag]; got != want.n {
			t.Errorf("%s: transport carried %d frames, want %d", want.name, got, want.n)
		}
	}
}

// onceDropTransport drops the first appearance of every distinct frame and
// delivers all later appearances — including retransmissions with identical
// bytes, and re-sent acks. Every frame therefore needs one retransmission.
type onceDropTransport struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (tr *onceDropTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	key := fmt.Sprintf("%d>%d:%x", from, to, m.Data)
	tr.mu.Lock()
	dropped := !tr.seen[key]
	tr.seen[key] = true
	tr.mu.Unlock()
	if !dropped {
		deliver(m)
	}
}

func TestHardenedSurvivesDrops(t *testing.T) {
	tr := &onceDropTransport{seen: map[string]bool{}}
	st, err := RunWithOptions(4, Options{Transport: tr, Retry: fastRetry}, ringExchange)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retransmits == 0 {
		t.Fatal("every frame was dropped once; retransmissions must have occurred")
	}
}

// dupTransport delivers every frame twice.
type dupTransport struct{}

func (dupTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	deliver(m)
	deliver(m)
}

func TestHardenedDropsDuplicates(t *testing.T) {
	st, err := RunWithOptions(4, Options{Transport: dupTransport{}, Retry: fastRetry}, ringExchange)
	if err != nil {
		t.Fatal(err)
	}
	if st.DupDropped == 0 {
		t.Fatal("duplicated frames must be detected and dropped")
	}
}

// corruptOnceTransport delivers a bit-flipped copy on the first appearance
// of every frame, then the clean frame on later appearances.
type corruptOnceTransport struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (tr *corruptOnceTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	key := fmt.Sprintf("%d>%d:%x", from, to, m.Data)
	tr.mu.Lock()
	first := !tr.seen[key]
	tr.seen[key] = true
	tr.mu.Unlock()
	if first && len(m.Data) > 0 {
		cp := append([]byte(nil), m.Data...)
		cp[len(cp)/2] ^= 0x10
		deliver(Message{Tag: m.Tag, Data: cp})
		return
	}
	deliver(m)
}

func TestHardenedDetectsCorruption(t *testing.T) {
	tr := &corruptOnceTransport{seen: map[string]bool{}}
	st, err := RunWithOptions(4, Options{Transport: tr, Retry: fastRetry}, ringExchange)
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptDropped == 0 {
		t.Fatal("bit-flipped frames must be rejected by checksum")
	}
	if st.Retransmits == 0 {
		t.Fatal("rejected frames must be retransmitted")
	}
}

// holdOneTransport holds back one frame per directed link and releases it
// after the next frame on that link is delivered — guaranteed out-of-order
// arrival for back-to-back sends.
type holdOneTransport struct {
	mu   sync.Mutex
	held map[[2]int]func()
}

func (tr *holdOneTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	k := [2]int{from, to}
	tr.mu.Lock()
	if tr.held[k] == nil {
		mm := m
		tr.held[k] = func() { deliver(mm) }
		tr.mu.Unlock()
		return
	}
	release := tr.held[k]
	delete(tr.held, k)
	tr.mu.Unlock()
	deliver(m)
	release()
}

func (tr *holdOneTransport) Drain() {
	tr.mu.Lock()
	for k, release := range tr.held {
		delete(tr.held, k)
		release()
	}
	tr.mu.Unlock()
}

func TestHardenedRestoresFIFOOrder(t *testing.T) {
	// Two back-to-back Isends per link arrive swapped on the wire; sequence
	// numbers must restore send order, which the tag check observes. Without
	// them this exact run would panic with a tag mismatch.
	tr := &holdOneTransport{held: map[[2]int]func(){}}
	_, err := RunWithOptions(2, Options{Transport: tr, Retry: fastRetry}, func(c *Comm) error {
		peer := 1 - c.Rank()
		c.Isend(peer, 1, []byte("first"))
		c.Isend(peer, 2, []byte("second"))
		if got := string(c.Recv(peer, 1)); got != "first" {
			return fmt.Errorf("rank %d: got %q", c.Rank(), got)
		}
		if got := string(c.Recv(peer, 2)); got != "second" {
			return fmt.Errorf("rank %d: got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// blackHoleTransport silently discards every frame on the given directed
// links (both data and acks) and delivers everything else.
type blackHoleTransport struct{ dead map[[2]int]bool }

func (tr blackHoleTransport) Deliver(from, to int, m Message, deliver func(Message)) {
	if !tr.dead[[2]int{from, to}] {
		deliver(m)
	}
}

func TestHardenedRankLost(t *testing.T) {
	retry := RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 4 * time.Millisecond, MaxAttempts: 5}
	tr := blackHoleTransport{dead: map[[2]int]bool{{0, 1}: true}}
	start := time.Now()
	_, err := RunWithOptions(2, Options{Transport: tr, Retry: retry}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("into the void"))
			c.Recv(1, 4)
		} else {
			c.Recv(0, 3)
			c.Send(0, 4, []byte("reply"))
		}
		return nil
	})
	elapsed := time.Since(start)
	var rl *RankLostError
	if !errors.As(err, &rl) {
		t.Fatalf("want RankLostError, got %v", err)
	}
	if rl.Rank != 1 {
		t.Fatalf("lost rank should be 1, got %d", rl.Rank)
	}
	if budget := retry.Budget() + 2*time.Second; elapsed > budget {
		t.Fatalf("rank loss took %v, beyond budget %v", elapsed, budget)
	}
}

func TestRetryPolicyBudget(t *testing.T) {
	r := RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 4 * time.Millisecond, MaxAttempts: 5}
	// Waits: 1 + 2 + 4 + 4 + 4 ms.
	if got, want := r.Budget(), 15*time.Millisecond; got != want {
		t.Fatalf("Budget() = %v, want %v", got, want)
	}
	if (RetryPolicy{}).Budget() <= 0 {
		t.Fatal("default budget must be positive")
	}
}

// TestRetryPolicyBackoffOverflow is the regression test for the backoff
// doubling overflow: next() used to compute t*2 before comparing against
// MaxTimeout, so a policy with BaseTimeout or MaxTimeout in the upper half
// of the Duration range produced a negative wait — a timer that fires
// immediately — and Budget() went negative with it. The cap must be applied
// before doubling and Budget() must saturate instead of wrapping.
func TestRetryPolicyBackoffOverflow(t *testing.T) {
	huge := RetryPolicy{
		BaseTimeout: math.MaxInt64/2 + 1,
		MaxTimeout:  math.MaxInt64,
		MaxAttempts: 64,
	}
	timeout := huge.BaseTimeout
	for attempt := 1; attempt <= huge.MaxAttempts; attempt++ {
		if timeout <= 0 {
			t.Fatalf("attempt %d: wait %v is not positive", attempt, timeout)
		}
		if timeout > huge.MaxTimeout {
			t.Fatalf("attempt %d: wait %v exceeds MaxTimeout", attempt, timeout)
		}
		timeout = huge.next(timeout)
	}
	if got := huge.Budget(); got != math.MaxInt64 {
		t.Fatalf("extreme policy Budget() = %v, want saturation at MaxInt64", got)
	}
}

// TestRetryPolicyBudgetMatchesSendLoop pins Budget() to the exact wait
// schedule retransmitLoop follows: start at BaseTimeout, double-with-cap
// after every attempt, one wait per attempt, MaxAttempts waits in total.
func TestRetryPolicyBudgetMatchesSendLoop(t *testing.T) {
	policies := []RetryPolicy{
		{}, // defaults: 2+4+8+16+32 + 50*7 = 412ms
		{BaseTimeout: 3 * time.Millisecond, MaxTimeout: 7 * time.Millisecond, MaxAttempts: 5}, // 3+6+7+7+7
		{BaseTimeout: time.Millisecond, MaxTimeout: time.Millisecond, MaxAttempts: 1},
		{BaseTimeout: 5 * time.Millisecond, MaxTimeout: 40 * time.Millisecond, MaxAttempts: 9},
	}
	for _, p := range policies {
		eff := p.withDefaults()
		var want time.Duration
		timeout := eff.BaseTimeout // the schedule retransmitLoop walks
		for attempt := 1; attempt <= eff.MaxAttempts; attempt++ {
			want = satAddDur(want, timeout)
			timeout = eff.next(timeout)
		}
		if got := p.Budget(); got != want {
			t.Fatalf("policy %+v: Budget() = %v, want send-loop total %v", p, got, want)
		}
	}
	if got, want := (RetryPolicy{}).Budget(), 412*time.Millisecond; got != want {
		t.Fatalf("default Budget() = %v, want %v", got, want)
	}
}

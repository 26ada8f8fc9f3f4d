// Package mpi provides a small message-passing runtime modeled on the MPI
// subset the paper's distributed algorithms need: point-to-point send/recv,
// barrier, broadcast, allgather, all-to-all and reductions.
//
// The paper runs μDBSCAN-D with MPI across a 32-node commodity cluster. This
// repository substitutes goroutines for processes and channels for the
// interconnect: each rank is a goroutine, every byte that would cross the
// network is counted, and all collective semantics (SPMD order, completion
// guarantees) match their MPI counterparts. The algorithmic behaviour the
// paper evaluates — partitioning quality, halo volume, merge traffic,
// per-phase speedup — is therefore exercised identically; only the absolute
// wall-clock constants differ from real hardware.
//
// All ranks must execute the same sequence of collective calls (standard
// SPMD discipline). If any rank panics, the whole world is aborted and
// Run returns an error instead of deadlocking.
//
// # One delivery path
//
// Every message — application payloads and the collectives' own frames
// alike — is framed in a sequence-numbered, CRC32-C-checksummed envelope,
// acknowledged by the receiver, deduplicated and reassembled into per-link
// FIFO order, and retransmitted with bounded exponential backoff; a
// destination that never acks within the retry budget aborts the world with
// RankLostError. Frames cross a pluggable Transport (RunWithOptions); none
// means in-process delivery on the sending goroutine, where the ack lands
// before the send returns. Barrier, Bcast, Allgather and Alltoall are
// written once on top of point-to-point messages, so an in-process world and a
// multi-process one (RunRemote) run the same collectives, and a
// fault-injecting transport (internal/chaos) that drops, duplicates,
// reorders, delays and corrupts frames reaches all of them without changing
// any clustering built on top.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats aggregates per-rank communication accounting for one Run.
type Stats struct {
	// BytesSent[r] counts payload bytes rank r sent (point-to-point and its
	// share of collectives).
	BytesSent []int64
	// MsgsSent[r] counts messages rank r sent.
	MsgsSent []int64
	// The remaining counters are the envelope protocol's reliability
	// accounting; all but EnvelopeBytes stay zero on a clean network.
	//
	// Retransmits counts envelope retransmissions after an ack timeout.
	Retransmits int64
	// Timeouts counts ack waits that expired (each retransmission is
	// preceded by one, and the final budget-exhausting wait adds one more).
	Timeouts int64
	// CorruptDropped counts received frames rejected by the envelope or ack
	// checksum.
	CorruptDropped int64
	// DupDropped counts structurally valid envelopes discarded as
	// duplicates (re-acked, not re-delivered).
	DupDropped int64
	// EnvelopeBytes counts protocol overhead bytes — envelope headers plus
	// ack frames — that the payload-only BytesSent accounting excludes.
	EnvelopeBytes int64
}

// TotalBytes returns the total bytes sent across all ranks.
func (s Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.BytesSent {
		t += b
	}
	return t
}

type message struct {
	tag  int
	data []byte
}

type errAbort struct{ cause any }

func (e errAbort) Error() string { return fmt.Sprintf("mpi: world aborted: %v", e.cause) }

// world holds the shared state of one Run, or this process's share of one
// RunRemote (where only the local rank's mailboxes ever fill).
type world struct {
	size      int
	chans     []chan message // dst*size+src
	abort     chan struct{}
	abortOnce sync.Once
	cause     atomic.Value
	bytes     []int64
	msgs      []int64

	// transport carries every frame; nil delivers in-process on the sending
	// goroutine.
	transport Transport
	retry     RetryPolicy
	links     []*linkState
	// inflight tracks retransmit goroutines so Run can quiesce them before
	// the final stats snapshot.
	inflight                                                         sync.WaitGroup
	retransmits, timeouts, corruptDropped, dupDropped, envelopeBytes int64
}

func newWorld(p int, tr Transport, retry RetryPolicy) *world {
	w := &world{
		size:      p,
		chans:     make([]chan message, p*p),
		abort:     make(chan struct{}),
		bytes:     make([]int64, p),
		msgs:      make([]int64, p),
		transport: tr,
		retry:     retry.withDefaults(),
		links:     newLinks(p),
	}
	for i := range w.chans {
		w.chans[i] = make(chan message, 1024)
	}
	return w
}

func (w *world) doAbort(cause any) {
	w.abortOnce.Do(func() {
		// Store the original value (not its string) so typed causes like
		// *RankLostError survive to Run's error selection.
		w.cause.Store(cause)
		close(w.abort)
	})
}

// runRank runs fn as one rank and returns its error: the one fn returned,
// or the panic it raised. Any failure other than observing a peer's abort
// aborts the world.
func (w *world) runRank(rank int, fn func(c *Comm) error) (err error) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		switch v := rec.(type) {
		case errAbort:
			err = v
		case *RankLostError:
			err = v
			w.doAbort(v)
		default:
			err = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
			w.doAbort(rec)
		}
	}()
	if err = fn(&Comm{rank: rank, w: w}); err != nil {
		w.doAbort(err)
	}
	return err
}

// result picks the error a run reports from its ranks' errors, root cause
// first: the first that is not merely the abort; else, when every failed
// rank saw only the abort, the stored cause if it is a typed error (e.g. a
// RankLostError raised on a retransmit goroutine or by a transport's
// peer-down detector, which no rank observed directly); else the abort.
func (w *world) result(errs []error) error {
	var abort error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, isAbort := err.(errAbort); !isAbort {
			return err
		}
		if abort == nil {
			abort = err
		}
	}
	if abort == nil {
		return nil
	}
	if c, ok := w.cause.Load().(error); ok {
		if _, isAbort := c.(errAbort); !isAbort {
			return c
		}
	}
	return abort
}

// Comm is one rank's handle on the world.
type Comm struct {
	rank int
	w    *world
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// Options configures RunWithOptions; the zero value reproduces Run.
type Options struct {
	// Transport carries every frame between ranks (nil = in-process
	// delivery on the sending goroutine).
	Transport Transport
	// Retry bounds the retransmission loop (zero value = defaults).
	Retry RetryPolicy
}

// Run executes fn on p ranks and blocks until all complete. Each rank's
// panic aborts the world; the first failure is returned as an error. The
// returned Stats report per-rank communication volumes.
func Run(p int, fn func(c *Comm) error) (Stats, error) {
	return RunWithOptions(p, Options{}, fn)
}

// RunWithOptions is Run with an explicit transport and retry policy.
func RunWithOptions(p int, opts Options, fn func(c *Comm) error) (Stats, error) {
	if p < 1 {
		return Stats{}, fmt.Errorf("mpi: need at least 1 rank, got %d", p)
	}
	w := newWorld(p, opts.Transport, opts.Retry)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = w.runRank(rank, fn)
		}(r)
	}
	wg.Wait()
	// Quiesce before the stats snapshot: flush anything a transport still
	// holds (delayed deliveries), then join the retransmit goroutines those
	// deliveries unblock.
	if d, ok := w.transport.(Drainer); ok {
		d.Drain()
	}
	w.inflight.Wait()
	return w.statsSnapshot(), w.result(errs)
}

// statsSnapshot copies the counters into fresh storage with atomic loads,
// so the returned Stats are safe to read however the world was torn down.
func (w *world) statsSnapshot() Stats {
	st := Stats{
		BytesSent:      make([]int64, w.size),
		MsgsSent:       make([]int64, w.size),
		Retransmits:    atomic.LoadInt64(&w.retransmits),
		Timeouts:       atomic.LoadInt64(&w.timeouts),
		CorruptDropped: atomic.LoadInt64(&w.corruptDropped),
		DupDropped:     atomic.LoadInt64(&w.dupDropped),
		EnvelopeBytes:  atomic.LoadInt64(&w.envelopeBytes),
	}
	for i := 0; i < w.size; i++ {
		st.BytesSent[i] = atomic.LoadInt64(&w.bytes[i])
		st.MsgsSent[i] = atomic.LoadInt64(&w.msgs[i])
	}
	return st
}

func (c *Comm) account(bytes int) {
	atomic.AddInt64(&c.w.bytes[c.rank], int64(bytes))
	atomic.AddInt64(&c.w.msgs[c.rank], 1)
}

// Send delivers data to rank dst with the given tag: Isend without the
// Request. It is fire-and-forget at the protocol level — the envelope goes
// out immediately and any retransmission continues in the background; an
// exhausted retry budget aborts the world with RankLostError rather than
// failing the call. In-process it blocks only while the destination's
// mailbox is full.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.Isend(dst, tag, data)
}

// Recv blocks until a message from rank src arrives and returns its payload.
// The message's tag must equal the expected tag: a mismatch means the SPMD
// protocol is broken, and panics.
func (c *Comm) Recv(src, tag int) []byte {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	select {
	case m := <-c.w.chans[c.rank*c.w.size+src]:
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
		}
		return m.data
	case <-c.w.abort:
		panic(errAbort{cause: "peer failure"})
	}
}

// Reserved tags of the collectives' own frames. All reserved tags share the
// mpi-tag wire group so two subsystems can never claim the same value.
//
//mulint:wire mpi-tag
const (
	barrierTag   = -1091
	bcastTag     = -1092
	allgatherTag = -1093
)

// sendControl transmits a collective's frame without booking it:
// collectives account their payload once, as one logical message, and a
// Barrier books nothing.
func (c *Comm) sendControl(dst, tag int, data []byte) {
	c.w.send(c.rank, dst, tag, data)
}

// Barrier blocks until all ranks have entered it, with rank 0 coordinating:
// everyone reports in, then rank 0 releases everyone.
func (c *Comm) Barrier() {
	if c.rank != 0 {
		c.sendControl(0, barrierTag, nil)
		c.Recv(0, barrierTag)
		return
	}
	for src := 1; src < c.w.size; src++ {
		c.Recv(src, barrierTag)
	}
	for dst := 1; dst < c.w.size; dst++ {
		c.sendControl(dst, barrierTag, nil)
	}
}

// Bcast distributes root's data to every rank and returns it. The root
// books len(data)*(Size-1) bytes as one logical message.
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.rank != root {
		return c.Recv(root, bcastTag)
	}
	c.account(len(data) * (c.w.size - 1))
	for dst := 0; dst < c.w.size; dst++ {
		if dst != root {
			c.sendControl(dst, bcastTag, data)
		}
	}
	return data
}

// Allgather exchanges every rank's data pairwise and returns all ranks'
// payloads indexed by rank; out[Rank] is the caller's own data. Each rank
// books len(data)*(Size-1) bytes as one logical message. Sends never wait
// for their ack, so posting all of them before the first receive cannot
// deadlock.
func (c *Comm) Allgather(data []byte) [][]byte {
	c.account(len(data) * (c.w.size - 1))
	for dst := 0; dst < c.w.size; dst++ {
		if dst != c.rank {
			c.sendControl(dst, allgatherTag, data)
		}
	}
	out := make([][]byte, c.w.size)
	out[c.rank] = data
	for src := 0; src < c.w.size; src++ {
		if src != c.rank {
			out[src] = c.Recv(src, allgatherTag)
		}
	}
	return out
}

// alltoallTag is the reserved tag of every all-to-all payload frame.
//
//mulint:wire mpi-tag
const alltoallTag = -1082

// Alltoall sends send[i] to rank i and returns the payloads received, with
// recv[i] coming from rank i (recv[Rank] is the caller's own buffer).
// len(send) must equal Size. Each payload to a peer is booked as one
// message, as Isend books it. Completion is a synchronization point:
// Alltoall returns only after every rank has finished the collective, so a
// later tagged message on any pair's mailbox cannot overtake exchange
// traffic.
func (c *Comm) Alltoall(send [][]byte) [][]byte {
	if len(send) != c.w.size {
		panic(fmt.Sprintf("mpi: Alltoall needs %d buffers, got %d", c.w.size, len(send)))
	}
	sends := make([]*Request, 0, c.w.size)
	for dst, data := range send {
		if dst != c.rank {
			sends = append(sends, c.Isend(dst, alltoallTag, data))
		}
	}
	recv := make([][]byte, c.w.size)
	recv[c.rank] = send[c.rank]
	for src := range recv {
		if src != c.rank {
			recv[src] = c.Recv(src, alltoallTag)
		}
	}
	for _, r := range sends {
		r.Wait()
	}
	c.Barrier()
	return recv
}

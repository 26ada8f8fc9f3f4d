package mpi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ackTag marks acknowledgment frames on the reverse link; it never reaches
// an application mailbox.
//
//mulint:wire mpi-tag
const ackTag = -1099

// RetryPolicy bounds the envelope protocol's retransmission loop. The zero
// value selects the defaults below.
type RetryPolicy struct {
	// BaseTimeout is the ack wait before the first retransmission; each
	// subsequent wait doubles, capped at MaxTimeout.
	BaseTimeout time.Duration
	// MaxTimeout caps the exponential backoff.
	MaxTimeout time.Duration
	// MaxAttempts is the total number of transmissions (first send included)
	// before the destination is declared lost.
	MaxAttempts int
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.BaseTimeout <= 0 {
		r.BaseTimeout = 2 * time.Millisecond
	}
	if r.MaxTimeout <= 0 {
		r.MaxTimeout = 50 * time.Millisecond
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 12
	}
	return r
}

// next returns the backoff wait that follows t: doubled, capped at
// MaxTimeout. The cap is applied before doubling, so the result cannot wrap
// negative for any user-supplied BaseTimeout — Duration is an int64 of
// nanoseconds, and a naive t*2 overflows for t > ~146 years, turning every
// subsequent wait negative (a timer that fires immediately) well before the
// MaxTimeout comparison sees it.
func (r RetryPolicy) next(t time.Duration) time.Duration {
	if t > r.MaxTimeout/2 {
		return r.MaxTimeout
	}
	return t * 2
}

// satAddDur adds two non-negative Durations, saturating at the maximum
// representable Duration instead of wrapping.
func satAddDur(a, b time.Duration) time.Duration {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Budget returns the maximum time one send can spend waiting for an ack
// before its destination is declared lost: the sum of all backoff timeouts,
// computed with the exact doubling-and-cap schedule the retransmit loop
// follows (one wait per attempt, MaxAttempts waits total) and saturating
// instead of overflowing for extreme policies. Callers use it to bound how
// long a permanently-lossy run may take to surface RankLostError.
func (r RetryPolicy) Budget() time.Duration {
	r = r.withDefaults()
	var total time.Duration
	t := r.BaseTimeout
	for i := 1; i < r.MaxAttempts; i++ {
		total = satAddDur(total, t)
		t = r.next(t)
	}
	return satAddDur(total, t)
}

// RankLostError reports that a destination rank exhausted the sender's
// retransmission budget without acknowledging a message. The world is
// aborted when it is raised; Run returns it as the root cause.
type RankLostError struct {
	// Rank is the unresponsive destination.
	Rank int
	// From is the sender that declared it lost.
	From int
	// Attempts is the number of unacknowledged transmissions.
	Attempts int
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("mpi: rank %d declared lost by rank %d after %d unacknowledged transmissions", e.Rank, e.From, e.Attempts)
}

// linkState is the per-directed-link state of the envelope protocol,
// indexed like the mailboxes (dst*size+src). The sender side assigns
// sequence numbers and tracks unacked frames; the receiver side reassembles
// the per-link FIFO order and drops duplicates.
type linkState struct {
	mu       sync.Mutex
	nextSeq  uint64
	pending  map[uint64]chan struct{}
	expected uint64
	buffered map[uint64]message
}

func newLinks(p int) []*linkState {
	links := make([]*linkState, p*p)
	for i := range links {
		links[i] = &linkState{
			pending:  make(map[uint64]chan struct{}),
			buffered: make(map[uint64]message),
		}
	}
	return links
}

func (w *world) link(src, dst int) *linkState { return w.links[dst*w.size+src] }

// mailboxPut inserts a verified in-order message into dst's mailbox from
// src. It must not panic: it runs on transport and retransmit goroutines
// with no rank recover above them. An abort unblocks it so stray deliveries
// cannot wedge teardown.
//
//mulint:inline runs on the delivering goroutine; spawning here would break the inline-ack guarantee
func (w *world) mailboxPut(src, dst int, m message) {
	select {
	case w.chans[dst*w.size+src] <- m:
	case <-w.abort:
	}
}

// deliverData pushes one envelope frame toward dst through the configured
// transport (or directly when none is set).
//
//mulint:inline the clean-network fast path acks inline on this goroutine; a go statement anywhere below would silently reintroduce a goroutine per send
func (w *world) deliverData(src, dst int, m Message) {
	if w.transport != nil {
		w.transport.Deliver(src, dst, m, func(mm Message) { w.receiveEnvelope(src, dst, mm) })
		return
	}
	w.receiveEnvelope(src, dst, m)
}

// send frames data, transmits it, and returns a Request that completes when
// the destination acknowledges the frame. It is the runtime's one
// point-to-point path. On a clean network the ack arrives inline (the
// delivery callback runs on this goroutine) and no retransmit goroutine is
// ever spawned — that is the entire overhead of the protocol when nothing
// goes wrong. Otherwise a background loop retransmits with exponential
// backoff until the ack lands or the retry budget declares dst lost, which
// aborts the world with RankLostError.
func (w *world) send(src, dst, tag int, data []byte) *Request {
	lk := w.link(src, dst)
	lk.mu.Lock()
	seq := lk.nextSeq
	lk.nextSeq++
	ackCh := make(chan struct{})
	lk.pending[seq] = ackCh
	lk.mu.Unlock()

	env := EncodeEnvelope(seq, tag, data)
	atomic.AddInt64(&w.envelopeBytes, envHeaderLen)
	w.deliverData(src, dst, Message{Tag: tag, Data: env})
	select {
	case <-ackCh:
		return completed()
	default:
	}
	r := &Request{done: make(chan struct{})}
	w.inflight.Add(1)
	go w.retransmitLoop(r, src, dst, seq, tag, env, ackCh)
	return r
}

func (w *world) retransmitLoop(r *Request, src, dst int, seq uint64, tag int, env []byte, ackCh chan struct{}) {
	defer w.inflight.Done()
	defer close(r.done)
	timeout := w.retry.BaseTimeout
	for attempt := 1; ; attempt++ {
		timer := time.NewTimer(timeout)
		select {
		case <-ackCh:
			timer.Stop()
			return
		case <-w.abort:
			timer.Stop()
			r.err = errAbort{cause: "peer failure"}
			return
		case <-timer.C:
		}
		atomic.AddInt64(&w.timeouts, 1)
		if attempt >= w.retry.MaxAttempts {
			err := &RankLostError{Rank: dst, From: src, Attempts: attempt}
			r.err = err
			w.doAbort(err)
			return
		}
		atomic.AddInt64(&w.retransmits, 1)
		w.deliverData(src, dst, Message{Tag: tag, Data: env})
		timeout = w.retry.next(timeout)
	}
}

// receiveEnvelope is the hardened receive boundary for the src→dst link: it
// validates the frame, acknowledges every structurally valid one (including
// duplicates — the original ack may have been lost), drops corrupt frames
// and duplicates, buffers out-of-order arrivals, and releases the in-order
// prefix into the real mailbox. It runs on whatever goroutine the transport
// delivers from, which is what keeps acks flowing while both endpoint ranks
// are themselves blocked sending (the all-to-all pattern).
//
//mulint:inline must complete on the delivering goroutine so the ack is sent before Deliver returns
func (w *world) receiveEnvelope(src, dst int, m Message) {
	seq, tag, payload, ok := DecodeEnvelope(m.Data)
	if !ok {
		atomic.AddInt64(&w.corruptDropped, 1)
		return
	}
	lk := w.link(src, dst)
	lk.mu.Lock()
	switch {
	case seq < lk.expected:
		atomic.AddInt64(&w.dupDropped, 1)
	default:
		if _, dup := lk.buffered[seq]; dup {
			atomic.AddInt64(&w.dupDropped, 1)
			break
		}
		lk.buffered[seq] = message{tag: tag, data: payload}
		for {
			next, have := lk.buffered[lk.expected]
			if !have {
				break
			}
			delete(lk.buffered, lk.expected)
			lk.expected++
			w.mailboxPut(src, dst, next)
		}
	}
	lk.mu.Unlock()
	w.sendAck(src, dst, seq)
}

// sendAck acknowledges seq on the src→dst link by sending a frame back
// along dst→src. Acks cross the same transport as data, so a fault plan can
// drop or corrupt them; the sender's retransmission covers both directions.
//
//mulint:inline acks must flow even while every rank goroutine is blocked sending
func (w *world) sendAck(src, dst int, seq uint64) {
	buf := EncodeAck(seq)
	atomic.AddInt64(&w.envelopeBytes, ackFrameLen)
	m := Message{Tag: ackTag, Data: buf}
	if w.transport != nil {
		w.transport.Deliver(dst, src, m, func(mm Message) { w.receiveAck(src, dst, mm) })
		return
	}
	w.receiveAck(src, dst, m)
}

// receiveAck resolves a pending send on the src→dst link. Unknown sequence
// numbers (already acked, or the frame was corrupted into a different valid
// ack — impossible with CRC32-C at these sizes, but harmless) are ignored.
//
//mulint:inline resolves the pending send on the delivering goroutine; the inline-completion fast path in send depends on it
func (w *world) receiveAck(src, dst int, m Message) {
	seq, ok := DecodeAck(m.Data)
	if !ok {
		atomic.AddInt64(&w.corruptDropped, 1)
		return
	}
	lk := w.link(src, dst)
	lk.mu.Lock()
	ch, pending := lk.pending[seq]
	if pending {
		delete(lk.pending, seq)
	}
	lk.mu.Unlock()
	if pending {
		close(ch)
	}
}

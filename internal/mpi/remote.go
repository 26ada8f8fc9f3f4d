package mpi

import (
	"fmt"
	"time"
)

// RemoteTransport is a Transport whose other endpoints live in different OS
// processes. Deliver pushes a frame toward a remote rank (or hands it to the
// local deliver callback when to == the local rank); Bind registers the two
// callbacks the runtime needs from the receive side before any frame may be
// dispatched:
//
//   - ingress fires once per frame that arrives for the local rank, with the
//     source rank and the frame. It is invoked from the transport's receive
//     goroutines and must be safe for concurrent use per source.
//   - peerDown fires when a peer becomes unreachable before announcing a
//     clean shutdown — its connection broke without the transport's goodbye
//     handshake. It may fire at most once per peer and never after Drain.
//
// Shutdown closes the transport: it announces a goodbye to every connected
// peer — a clean one after a normal finish, an abort announcement otherwise,
// which is how world aborts propagate between processes without a new
// acknowledged exchange — then closes every socket and joins every receive
// goroutine. RunRemote always calls it on the way out, clean exit or not, so
// sockets and goroutines never outlive the world. Shutdown must be
// idempotent; transports should also implement Drainer as Shutdown(true).
type RemoteTransport interface {
	Transport
	Bind(ingress func(from int, m Message), peerDown func(rank int))
	Shutdown(clean bool)
}

// RemoteOptions configures RunRemote.
type RemoteOptions struct {
	// Rank is the local rank in [0, Size).
	Rank int
	// Size is the world size; the other Size-1 ranks run in other processes.
	Size int
	// Transport carries every frame between processes. Required.
	Transport RemoteTransport
	// Retry bounds the retransmission loop (zero value = defaults).
	// All processes of one world must agree on it: Budget() is the kill
	// detection bound the caller may rely on.
	Retry RetryPolicy
	// Linger keeps the receive side responsive for this long after a clean
	// finish, re-acknowledging retransmitted envelopes whose original acks a
	// lossy transport dropped. Zero is correct for loss-free links (TCP, unix
	// sockets); fault-injection tests set it to Retry.Budget() so a peer
	// whose final ack was eaten can still complete within its budget.
	Linger time.Duration
}

// RunRemote executes fn as one rank of a multi-process world. Unlike Run,
// which spawns every rank as a goroutine, exactly one rank lives in this
// process; the rest are reached through opts.Transport. The protocol and
// the collectives are Run's own; kill detection (RankLostError within
// Retry.Budget()) is built on the ack timeout.
//
// The returned Stats hold this process's counters only (BytesSent/MsgsSent
// are populated at the local rank's index); distributed aggregation is the
// caller's job.
func RunRemote(opts RemoteOptions, fn func(c *Comm) error) (Stats, error) {
	p := opts.Size
	if p < 1 {
		return Stats{}, fmt.Errorf("mpi: need at least 1 rank, got %d", p)
	}
	if opts.Rank < 0 || opts.Rank >= p {
		return Stats{}, fmt.Errorf("mpi: rank %d outside world of size %d", opts.Rank, p)
	}
	if opts.Transport == nil {
		return Stats{}, fmt.Errorf("mpi: RunRemote needs a transport")
	}
	self := opts.Rank
	w := newWorld(p, opts.Transport, opts.Retry)
	opts.Transport.Bind(
		func(from int, m Message) {
			if from < 0 || from >= p || from == self {
				return
			}
			if m.Tag == ackTag {
				w.receiveAck(self, from, m)
				return
			}
			w.receiveEnvelope(from, self, m)
		},
		func(rank int) {
			w.doAbort(&RankLostError{Rank: rank, From: self, Attempts: 0})
		},
	)

	runErr := w.runRank(self, fn)

	// Clean finish: quiesce our own unacked sends first — the transport's
	// receive side must stay up until the last ack lands — then optionally
	// linger to re-ack peers' retransmissions. Both waits are bounded: a peer
	// dying here exhausts some retransmit budget, which aborts the world and
	// releases every retransmit goroutine.
	if runErr == nil {
		w.inflight.Wait()
		if opts.Linger > 0 {
			timer := time.NewTimer(opts.Linger)
			select {
			case <-timer.C:
			case <-w.abort:
				timer.Stop()
			}
		}
	}
	// Shut the transport down unconditionally — on the abort path this is
	// what closes the sockets and joins the receive goroutines a lost rank
	// would otherwise leak. The goodbye kind tells surviving peers whether we
	// finished or went down, so an abort cascades instead of wedging them.
	clean := runErr == nil
	select {
	case <-w.abort:
		clean = false
	default:
	}
	opts.Transport.Shutdown(clean)
	w.inflight.Wait()
	return w.statsSnapshot(), w.result([]error{runErr})
}

package mpi

import "fmt"

// Request is a handle on a send started with Isend. Wait blocks until the
// destination has acknowledged it. A failure of the world while the send is
// in flight surfaces as a panic from Wait, exactly as the blocking calls
// panic — the rank's runner recovers it and aborts the world.
type Request struct {
	done chan struct{}
	err  any
}

// Wait blocks until the send completes. If it failed (peer abort, lost
// rank) Wait panics with the value a blocking call would have panicked with.
func (r *Request) Wait() {
	<-r.done
	if r.err != nil {
		panic(r.err)
	}
}

// completed returns an already-finished request (used when the send could
// complete inline).
func completed() *Request {
	done := make(chan struct{})
	close(done)
	return &Request{done: done}
}

// Isend starts a non-blocking send of data to rank dst and returns a
// Request whose Wait reports the destination's acknowledgment. The payload
// is copied into the envelope, so the sender may reuse it once Isend
// returns. Messages between one (src, dst) pair arrive in send order:
// sequence numbers restore it at the receiver whatever the transport does.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	c.account(len(data))
	return c.w.send(c.rank, dst, tag, data)
}

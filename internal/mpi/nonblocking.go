package mpi

import "fmt"

// Request is a handle on a non-blocking point-to-point operation started
// with Isend or Irecv. Wait blocks until the operation completes and, for
// receives, returns the payload. A failure of the world while the operation
// is in flight surfaces as a panic from Wait, exactly as the blocking
// counterparts panic — the rank's runner recovers it and aborts the world.
type Request struct {
	done chan struct{}
	data []byte
	err  any
}

// Wait blocks until the operation completes. For a receive it returns the
// payload; for a send it returns nil. If the operation failed (peer abort,
// tag mismatch) Wait panics with the same value the blocking operation
// would have panicked with.
func (r *Request) Wait() []byte {
	<-r.done
	if r.err != nil {
		panic(r.err)
	}
	return r.data
}

// completed returns an already-finished request (used when the operation
// could complete inline).
func completed(data []byte) *Request {
	done := make(chan struct{})
	close(done)
	return &Request{done: done, data: data}
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

// Irecv starts a non-blocking receive of one message from rank src with the
// given tag; Wait returns the payload. As with Recv, a tag mismatch means
// the SPMD protocol is broken and surfaces as a panic from Wait. At most
// one receive per (src, tag-stream) may be outstanding at a time — the
// mailbox is FIFO, so overlapping receives from the same source would race
// for messages.
func (c *Comm) Irecv(src, tag int) *Request {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: irecv from invalid rank %d", src))
	}
	ch := c.w.chans[c.rank*c.w.size+src]
	select {
	case m := <-ch:
		// Completed inline; still validate the protocol.
		if m.tag != tag {
			r := completed(nil)
			r.err = fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag)
			return r
		}
		return completed(m.data)
	default:
	}
	r := &Request{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		select {
		case m := <-ch:
			if m.tag != tag {
				r.err = fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag)
				return
			}
			r.data = m.data
		case <-c.w.abort:
			r.err = errAbort{cause: "peer failure"}
		}
	}()
	return r
}

// alltoallTag is the reserved tag of every all-to-all payload frame.
//
//mulint:wire mpi-tag
const alltoallTag = -1082

// AlltoallRequest is a handle on an in-flight IAlltoall.
type AlltoallRequest struct {
	c     *Comm
	self  []byte
	recvs []*Request // indexed by src; nil for self
	sends []*Request // indexed by dst; nil for self
}

// IAlltoall starts an all-to-all exchange without completing it: all sends
// are initiated and all receives posted, then control returns to the
// caller, which may compute while peers' payloads are in flight. Wait
// finishes the collective. len(send) must equal Size.
//
// This is the overlap primitive μDBSCAN-D's halo exchange uses: the rank
// starts building its local μR-tree between IAlltoall and Wait.
func (c *Comm) IAlltoall(send [][]byte) *AlltoallRequest {
	if len(send) != c.w.size {
		panic(fmt.Sprintf("mpi: IAlltoall needs %d buffers, got %d", c.w.size, len(send)))
	}
	a := &AlltoallRequest{
		c:     c,
		self:  send[c.rank],
		recvs: make([]*Request, c.w.size),
		sends: make([]*Request, c.w.size),
	}
	// Post the receives first so in-flight payloads always have a consumer,
	// then kick off every send.
	for src := 0; src < c.w.size; src++ {
		if src == c.rank {
			continue
		}
		a.recvs[src] = c.Irecv(src, alltoallTag)
	}
	for dst, data := range send {
		if dst == c.rank {
			continue
		}
		a.sends[dst] = c.Isend(dst, alltoallTag, data)
	}
	return a
}

// Wait completes the exchange and returns the payloads indexed by source
// rank (recv[i] came from rank i; recv[rank] is the caller's own buffer).
// Completion is a synchronization point: Wait returns only after every rank
// has finished the collective, so a subsequent tagged message on any pair's
// mailbox cannot overtake exchange traffic.
func (a *AlltoallRequest) Wait() [][]byte {
	out := make([][]byte, a.c.w.size)
	out[a.c.rank] = a.self
	for src, r := range a.recvs {
		if r != nil {
			out[src] = r.Wait()
		}
	}
	for _, r := range a.sends {
		if r != nil {
			r.Wait()
		}
	}
	a.c.Barrier()
	return out
}

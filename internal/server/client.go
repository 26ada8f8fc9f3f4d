package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"mudbscan/internal/clustering"
	"mudbscan/internal/mpi/nettrans"
)

// Client is a tenant connection to a mudbscand daemon. A single Client may
// be used from many goroutines: requests are tagged, a background reader
// demultiplexes responses, and any number of jobs can be in flight at once.
type Client struct {
	conn     net.Conn
	maxFrame int

	writeMu sync.Mutex

	mu      sync.Mutex
	nextTag int64
	pending map[int64]chan response
	err     error // terminal transport error, set once the reader exits
	closed  bool

	readerDone chan struct{}
}

type response struct {
	status byte
	body   []byte
}

// Dial connects to a daemon and introduces itself as tenant.
func Dial(network, addr, tenant string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, tenant)
}

// NewClient wraps an established connection (tests use net.Pipe-style
// conns), sends the hello, and starts the response reader. On error the
// connection is closed.
func NewClient(conn net.Conn, tenant string) (*Client, error) {
	c := &Client{
		conn:       conn,
		maxFrame:   nettrans.DefaultMaxFrame,
		pending:    make(map[int64]chan response),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	if _, _, err := c.roundTrip(append(request(opHello, len(tenant)), tenant...)); err != nil {
		c.Close()
		return nil, fmt.Errorf("server: hello: %w", err)
	}
	return c, nil
}

// Close tears the connection down. In-flight requests fail with the
// transport error; Close blocks until the reader has exited.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if already {
		return nil
	}
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop demultiplexes responses to their waiting requests until the
// connection dies, then fails every still-pending request.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	for {
		_, tag, payload, err := nettrans.ReadFrame(br, c.maxFrame, RespMagic)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("server: connection lost: %w", err)
			}
			for tag, ch := range c.pending {
				delete(c.pending, tag)
				close(ch)
			}
			c.mu.Unlock()
			return
		}
		if len(payload) == 0 {
			continue // not a valid response; the next read will surface the skew
		}
		c.mu.Lock()
		ch, ok := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if ok {
			ch <- response{status: payload[0], body: payload[1:]}
		}
	}
}

// request returns the start of a request frame: room for the frame
// header, then the op byte, with capacity for a body of bodyLen bytes. The
// caller appends the body and hands the frame to start, which fills the
// header in, so a request is built in one buffer and never copied.
func request(op byte, bodyLen int) []byte {
	frame := make([]byte, nettrans.HeaderLen+1, nettrans.HeaderLen+1+bodyLen)
	frame[nettrans.HeaderLen] = op
	return frame
}

// start registers a fresh tag and sends frame, built by request.
func (c *Client) start(frame []byte) (int64, chan response, error) {
	c.mu.Lock()
	if c.err != nil || c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return 0, nil, err
	}
	c.nextTag++
	tag := c.nextTag
	ch := make(chan response, 1)
	c.pending[tag] = ch
	c.mu.Unlock()

	nettrans.PutHeader(frame, ReqMagic, tag)
	c.writeMu.Lock()
	_, err := c.conn.Write(frame)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, tag)
		c.mu.Unlock()
		return 0, nil, err
	}
	return tag, ch, nil
}

// wait blocks for the response on ch, translating non-OK statuses into
// their sentinel errors (with the server's message attached).
func (c *Client) wait(ch chan response) (byte, []byte, error) {
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return 0, nil, err
	}
	if resp.status != statusOK {
		base := statusErr(resp.status)
		if len(resp.body) > 0 {
			return resp.status, nil, fmt.Errorf("%w (%s)", base, resp.body)
		}
		return resp.status, nil, base
	}
	return resp.status, resp.body, nil
}

func (c *Client) roundTrip(frame []byte) (byte, []byte, error) {
	_, ch, err := c.start(frame)
	if err != nil {
		return 0, nil, err
	}
	return c.wait(ch)
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, _, err := c.roundTrip(request(opPing, 0))
	return err
}

// Put uploads a dataset and returns its content id. All rows must share
// one dimensionality.
func (c *Client) Put(rows [][]float64) (DatasetID, error) {
	if len(rows) == 0 {
		return DatasetID{}, fmt.Errorf("%w: empty dataset", ErrBadRequest)
	}
	dim := len(rows[0])
	frame := request(opPut, 8+8*len(rows)*dim)
	frame = appendU32(frame, uint32(dim))
	frame = appendU32(frame, uint32(len(rows)))
	for i, row := range rows {
		if len(row) != dim {
			return DatasetID{}, fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadRequest, i, len(row), dim)
		}
		for _, v := range row {
			frame = appendF64(frame, v)
		}
	}
	_, resp, err := c.roundTrip(frame)
	if err != nil {
		return DatasetID{}, err
	}
	r := rbuf{b: resp}
	id := r.id()
	if !r.done() {
		return DatasetID{}, fmt.Errorf("server: malformed put response")
	}
	return id, nil
}

func clusterFrame(id DatasetID, engine Engine, param int, eps float64, minPts int) []byte {
	frame := request(opCluster, len(id)+1+4+8+4)
	frame = append(frame, id[:]...)
	frame = append(frame, byte(engine))
	frame = appendU32(frame, uint32(param))
	frame = appendF64(frame, eps)
	frame = appendU32(frame, uint32(minPts))
	return frame
}

// Pending is an in-flight clustering job: Wait for the result, or pass Tag
// to Cancel while it is still queued.
type Pending struct {
	Tag int64
	c   *Client
	ch  chan response
}

// ClusterStart submits a clustering job without waiting.
func (c *Client) ClusterStart(id DatasetID, eps float64, minPts int, engine Engine, param int) (*Pending, error) {
	tag, ch, err := c.start(clusterFrame(id, engine, param, eps, minPts))
	if err != nil {
		return nil, err
	}
	return &Pending{Tag: tag, c: c, ch: ch}, nil
}

// Wait blocks for the job's outcome.
func (p *Pending) Wait() (*clustering.Result, error) {
	_, body, err := p.c.wait(p.ch)
	if err != nil {
		return nil, err
	}
	return decodeResult(body)
}

// Cluster runs a clustering job to completion. Engine EngineAuto defers the
// choice to the daemon; param is the shared worker count or dist rank count
// (0 picks the engine default).
func (c *Client) Cluster(id DatasetID, eps float64, minPts int, engine Engine, param int) (*clustering.Result, error) {
	p, err := c.ClusterStart(id, eps, minPts, engine, param)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

func decodeResult(body []byte) (*clustering.Result, error) {
	r := rbuf{b: body}
	numClusters := int(r.u32())
	n := int(r.u32())
	hasCore := r.u8()
	if r.err || n < 0 || len(r.b) < 8*n {
		return nil, fmt.Errorf("server: malformed cluster response")
	}
	out := &clustering.Result{NumClusters: numClusters, Labels: make([]int, n)}
	for i := range out.Labels {
		out.Labels[i] = int(r.i64())
	}
	if hasCore == 1 {
		out.Core = make([]bool, n)
		for i := range out.Core {
			out.Core[i] = r.u8() != 0
		}
	}
	if !r.done() {
		return nil, fmt.Errorf("server: malformed cluster response")
	}
	return out, nil
}

// Cancel asks the daemon to drop tenant's queued job with the given tag.
// It reports true if the job was still queued (its Wait fails with
// ErrCanceled); false means it already ran or never existed.
func (c *Client) Cancel(tag int64) (bool, error) {
	_, resp, err := c.roundTrip(appendI64(request(opCancel, 8), tag))
	if err != nil {
		return false, err
	}
	if len(resp) != 1 {
		return false, fmt.Errorf("server: malformed cancel response")
	}
	return resp[0] == 1, nil
}

// EpsQuery returns the sorted ids of every dataset point strictly within
// eps of pt, served through the daemon's cached μR-tree index.
func (c *Client) EpsQuery(id DatasetID, eps float64, minPts int, pt []float64) ([]int, error) {
	frame := appendEpsQuery(request(opEpsQuery, len(id)+8+4+4+8*len(pt)), id, eps, minPts, pt)
	_, resp, err := c.roundTrip(frame)
	if err != nil {
		return nil, err
	}
	return decodeIDs(resp)
}

// appendEpsQuery encodes an eps-query body: dataset id, ε, MinPts, the
// point's dimension and its coordinates.
func appendEpsQuery(dst []byte, id DatasetID, eps float64, minPts int, pt []float64) []byte {
	dst = append(dst, id[:]...)
	dst = appendF64(dst, eps)
	dst = appendU32(dst, uint32(minPts))
	dst = appendU32(dst, uint32(len(pt)))
	for _, v := range pt {
		dst = appendF64(dst, v)
	}
	return dst
}

// decodeIDs decodes an OK eps-query response body: a u32 count, then that
// many u32 ids.
func decodeIDs(resp []byte) ([]int, error) {
	r := rbuf{b: resp}
	n := int(r.u32())
	if r.err || n < 0 || len(r.b) != 4*n {
		return nil, fmt.Errorf("server: malformed eps-query response")
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = int(r.u32())
	}
	return ids, nil
}

// StreamHandle is one open stream session on a client connection: points
// feed in incrementally through Add and exact snapshots of the live window
// come back from Snapshot. Sessions are connection-scoped — closing the
// Client abandons them.
type StreamHandle struct {
	sid uint32
	dim int
	c   *Client
}

// StreamOpen creates a stream session. lambda 0 selects the landmark window
// (pass pruneBelow 0 with it); lambda > 0 a damped window whose points
// expire once their exp(-lambda·age) weight falls below pruneBelow (0 keeps
// the server default).
func (c *Client) StreamOpen(dim int, eps float64, minPts int, lambda, pruneBelow float64) (*StreamHandle, error) {
	frame := request(opStreamOpen, 4+4+4+8+8+8)
	frame = appendU32(frame, uint32(dim))
	frame = appendU32(frame, uint32(minPts))
	frame = appendU32(frame, 0) // reserved
	frame = appendF64(frame, eps)
	frame = appendF64(frame, lambda)
	frame = appendF64(frame, pruneBelow)
	_, resp, err := c.roundTrip(frame)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: resp}
	sid := r.u32()
	if !r.done() {
		return nil, fmt.Errorf("server: malformed stream-open response")
	}
	return &StreamHandle{sid: sid, dim: dim, c: c}, nil
}

// Add feeds rows into the session in order. On error, rows before the one
// the server names in the message are already absorbed.
func (h *StreamHandle) Add(rows [][]float64) error {
	if len(rows) == 0 {
		return nil
	}
	frame := request(opStreamAdd, 4+4+8*len(rows)*h.dim)
	frame = appendU32(frame, h.sid)
	frame = appendU32(frame, uint32(len(rows)))
	for i, row := range rows {
		if len(row) != h.dim {
			return fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadRequest, i, len(row), h.dim)
		}
		for _, v := range row {
			frame = appendF64(frame, v)
		}
	}
	_, _, err := h.c.roundTrip(frame)
	return err
}

// Snapshot returns an exact clustering of the session's live window plus
// each window row's arrival sequence number (the i-th accepted point has
// sequence i), so labels map back onto what was ingested.
func (h *StreamHandle) Snapshot() (*clustering.Result, []int64, error) {
	_, resp, err := h.c.roundTrip(appendU32(request(opStreamSnap, 4), h.sid))
	if err != nil {
		return nil, nil, err
	}
	r := rbuf{b: resp}
	numClusters := int(r.u32())
	n := int(r.u32())
	if r.err || n < 0 || len(r.b) != 17*n {
		return nil, nil, fmt.Errorf("server: malformed stream-snapshot response")
	}
	out := &clustering.Result{NumClusters: numClusters}
	seqs := make([]int64, n)
	if n > 0 {
		out.Labels = make([]int, n)
		out.Core = make([]bool, n)
	}
	for i := range out.Labels {
		out.Labels[i] = int(r.i64())
	}
	for i := range out.Core {
		out.Core[i] = r.u8() != 0
	}
	for i := range seqs {
		seqs[i] = r.i64()
	}
	if !r.done() {
		return nil, nil, fmt.Errorf("server: malformed stream-snapshot response")
	}
	return out, seqs, nil
}

// Close releases the session on the server.
func (h *StreamHandle) Close() error {
	_, _, err := h.c.roundTrip(appendU32(request(opStreamClose, 4), h.sid))
	return err
}

// Stats fetches the daemon's counter snapshot as name→value pairs.
func (c *Client) Stats() (map[string]int64, error) {
	_, resp, err := c.roundTrip(request(opStats, 0))
	if err != nil {
		return nil, err
	}
	return decodeStats(resp)
}

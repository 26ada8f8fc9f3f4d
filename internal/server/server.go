package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"mudbscan"
	"mudbscan/internal/cell"
	"mudbscan/internal/geom"
	"mudbscan/internal/mc"
	"mudbscan/internal/mpi/nettrans"
	"mudbscan/internal/stream"
)

// Request validation bounds. These are sanity caps on the protocol, not
// tuning knobs: anything beyond them is a malformed or hostile request.
const (
	maxDim         = 1 << 10
	maxTenantName  = 128
	maxSharedWork  = 1 << 10
	maxDistRanks   = 64
	maxConnStreams = 8
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the clustering pool size (default GOMAXPROCS).
	Workers int
	// QueuePerTenant bounds one tenant's queued jobs (default 8); beyond it
	// submissions fail fast with ErrQueueFull.
	QueuePerTenant int
	// QueueTotal bounds all queued jobs (default 64); beyond it submissions
	// fail fast with ErrOverloaded.
	QueueTotal int
	// MaxDatasets bounds the dataset store (default 64).
	MaxDatasets int
	// ResultCacheSize bounds the clustering-result LRU (default 128).
	ResultCacheSize int
	// IndexCacheSize bounds the μR-tree index LRU for ε-queries (default 16).
	IndexCacheSize int
	// MaxFrame bounds one request frame (default nettrans.DefaultMaxFrame).
	MaxFrame int
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueuePerTenant <= 0 {
		c.QueuePerTenant = 8
	}
	if c.QueueTotal <= 0 {
		c.QueueTotal = 64
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.IndexCacheSize <= 0 {
		c.IndexCacheSize = 16
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = nettrans.DefaultMaxFrame
	}
}

// Server is the mudbscand daemon: Serve on any net.Listener (several may
// run concurrently), Close for a leak-free shutdown that fails queued jobs
// with ErrShuttingDown, closes every connection, and joins every goroutine.
type Server struct {
	cfg     Config
	store   *store
	results *resultCache
	indexes *indexCache
	q       *queue
	m       metrics

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		store:   newStore(cfg.MaxDatasets),
		results: newResultCache(cfg.ResultCacheSize),
		indexes: newIndexCache(cfg.IndexCacheSize),
		q:       newQueue(cfg.QueuePerTenant, cfg.QueueTotal),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Serve accepts connections on ln until the listener fails or the server
// closes. It returns nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrShuttingDown
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close shuts the daemon down: queued jobs fail with ErrShuttingDown (their
// responses are still delivered), then every listener and connection closes
// and Close blocks until all workers and handlers have exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln) //mulint:allow determinism/maprange shutdown closes every listener; order is immaterial
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, j := range s.q.close() {
		j.done(nil, ErrShuttingDown)
	}
	// Queue is closed: workers drain their in-flight job and exit. Give the
	// failed-job responses above a synchronous flush path before the
	// connections go away — done() writes inline, so they are already out.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c) //mulint:allow determinism/maprange shutdown closes every connection; order is immaterial
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Stats snapshots the full observable state, merging engine counters with
// queue depth, store size, and cache accounting.
func (s *Server) Stats() Stats {
	st := s.m.snapshot()
	st.QueueDepth = int64(s.q.depth())
	st.Datasets = int64(s.store.len())
	var size int
	st.ResultHits, st.ResultMisses, st.ResultEvictions, size = s.results.counters()
	st.ResultSize = int64(size)
	st.IndexHits, st.IndexMisses, st.IndexEvictions, size = s.indexes.counters()
	st.IndexSize = int64(size)
	return st
}

// worker drains the job queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		start := time.Now()
		res, err := s.runJob(j)
		s.m.jobDone(j.engine, time.Since(start), err)
		j.done(res, err)
	}
}

// runJob executes one clustering job on its resolved engine and stores the
// outcome in the result cache. Other jobs and ε-queries read the stored
// block while it runs. The μR-tree engines (seq and shared) reorder the rows
// they are given, so they run on a copy of it; the cell, dist and stream
// engines only read their input and run on the stored block itself.
func (s *Server) runJob(j *job) (*result, error) {
	coords := j.ds.set.Data()
	if j.engine != EngineCell && j.engine != EngineDist && j.engine != EngineStream {
		coords = slices.Clone(coords)
	}
	r, _, err := mudbscan.ClusterFlat(coords, j.ds.set.Dim(), j.eps, j.minPts,
		mudbscan.WithEngine(j.engine), mudbscan.WithWorkers(j.param))
	if err != nil {
		// ε, MinPts and every row were checked before the job was queued, so
		// the library refuses a daemon job only for its parameters: a cell
		// job on data the grid cannot index, a rank count that is not a
		// power of two.
		return nil, fmt.Errorf("%w: %s: %v", ErrBadRequest, j.engine, err)
	}
	res := &result{labels: r.Labels, core: r.Core, numClusters: r.NumClusters}
	s.results.put(j.key, res.clone())
	return res, nil
}

// serverConn is the per-connection state: the tenant identity, the reused
// decode and encode buffers, and the ε-query neighborhood arena and id
// bitmap. writeMu serializes the write path between the reader goroutine
// (inline ops) and pool workers (job completions); the buffers it guards make
// the warmed request→response path allocation-free.
type serverConn struct {
	s      *Server
	c      net.Conn
	tenant string

	writeMu sync.Mutex
	payload []byte // response body under construction
	wbuf    []byte // framed response bytes
	nbhd    []int  // ε-query neighborhood arena
	// seen puts an ε-query answer in id order: one bit per dataset point,
	// ⌈n/64⌉ words for the largest n this connection has queried, and all
	// zero between requests. A Put of n points is at least 8·n bytes, so it
	// never exceeds MaxFrame/64 bytes (1 MiB at the default frame bound).
	seen []uint64

	qpt    []float64 // decoded ε-query point
	coords []float64 // decoded stream-add coordinate block

	// streams holds this connection's open stream sessions. Only the reader
	// goroutine touches the map (stream ops are handled inline), so it needs
	// no lock; the sessions die with the connection.
	streams    map[uint32]*stream.Clusterer
	nextStream uint32
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.m.connClosed()
	}()
	s.m.connOpened()

	c := &serverConn{s: s, c: conn}
	br := bufio.NewReader(conn)
	for {
		_, tag, payload, err := nettrans.ReadFrame(br, s.cfg.MaxFrame, ReqMagic)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.m.badFrame()
			}
			return
		}
		if !c.handleFrame(tag, payload) {
			return
		}
	}
}

// handleFrame dispatches one request frame, reporting false when the
// connection must close (undecodable op or a protocol-order violation).
// It is also the protocol fuzz entry point: no payload may panic it —
// decodesafe enforces that every read of the payload (through rbuf) is
// length-guarded.
//
//mulint:tainted payload
func (c *serverConn) handleFrame(tag int64, payload []byte) bool {
	r := rbuf{b: payload}
	op := r.u8()
	if r.err {
		c.s.m.badFrame()
		return false
	}
	if c.tenant == "" && op != opHello {
		c.sendErr(tag, fmt.Errorf("%w: first frame must be hello", ErrBadRequest))
		return false
	}
	switch op {
	case opHello:
		c.handleHello(tag, &r)
	case opPing:
		c.s.m.ping()
		c.sendOK(tag)
	case opPut:
		c.handlePut(tag, &r)
	case opCluster:
		c.handleCluster(tag, &r)
	case opEpsQuery:
		c.handleEpsQuery(tag, &r)
	case opCancel:
		c.handleCancel(tag, &r)
	case opStats:
		c.handleStats(tag)
	case opStreamOpen:
		c.handleStreamOpen(tag, &r)
	case opStreamAdd:
		c.handleStreamAdd(tag, &r)
	case opStreamSnap:
		c.handleStreamSnap(tag, &r)
	case opStreamClose:
		c.handleStreamClose(tag, &r)
	default:
		c.sendErr(tag, fmt.Errorf("%w: unknown op %d", ErrBadRequest, op))
	}
	return true
}

// writeLocked frames c.payload and writes it. Callers hold writeMu and have
// just rebuilt c.payload.
func (c *serverConn) writeLocked(tag int64) {
	c.wbuf = nettrans.AppendFrame(c.wbuf[:0], RespMagic, tag, c.payload)
	c.c.Write(c.wbuf) // a failed write surfaces as the reader loop's exit
}

func (c *serverConn) sendOK(tag int64) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], statusOK)
	c.writeLocked(tag)
}

// errStatus maps a refusal to its wire code.
func errStatus(err error) byte {
	switch {
	case errors.Is(err, ErrBadRequest):
		return statusBadRequest
	case errors.Is(err, ErrUnknownDataset):
		return statusUnknownDataset
	case errors.Is(err, ErrQueueFull):
		return statusQueueFull
	case errors.Is(err, ErrOverloaded):
		return statusOverloaded
	case errors.Is(err, ErrShuttingDown):
		return statusShuttingDown
	case errors.Is(err, ErrCanceled):
		return statusCanceled
	case errors.Is(err, ErrUnknownEngine):
		return statusUnknownEngine
	case errors.Is(err, ErrTooManyDatasets):
		return statusTooManyDatasets
	case errors.Is(err, ErrUnknownStream):
		return statusUnknownStream
	default:
		return statusInternal
	}
}

func (c *serverConn) sendErr(tag int64, err error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], errStatus(err))
	c.payload = append(c.payload, err.Error()...)
	c.writeLocked(tag)
}

func (c *serverConn) handleHello(tag int64, r *rbuf) {
	name := r.rest()
	if c.tenant != "" {
		c.sendErr(tag, fmt.Errorf("%w: duplicate hello", ErrBadRequest))
		return
	}
	if len(name) == 0 || len(name) > maxTenantName {
		c.sendErr(tag, fmt.Errorf("%w: tenant name must be 1..%d bytes", ErrBadRequest, maxTenantName))
		return
	}
	c.tenant = string(name)
	c.sendOK(tag)
}

func (c *serverConn) handlePut(tag int64, r *rbuf) {
	dim := int(r.u32())
	n := int(r.u32())
	if r.err || dim < 1 || dim > maxDim || n < 1 {
		c.sendErr(tag, fmt.Errorf("%w: put wants dim in [1,%d] and n >= 1", ErrBadRequest, maxDim))
		return
	}
	// The body is decoded once, into a block of exactly its size that the
	// store adopts; its length is checked before the block is allocated.
	if r.left() != 8*n*dim {
		c.sendErr(tag, fmt.Errorf("%w: put body is not dim+n+%d coords", ErrBadRequest, n*dim))
		return
	}
	coords := r.f64sInto(make([]float64, 0, n*dim), n*dim)
	if !allFinite(coords) {
		c.sendErr(tag, fmt.Errorf("%w: put coordinates must be finite", ErrBadRequest))
		return
	}
	id, err := c.s.store.put(dim, coords)
	if err != nil {
		c.sendErr(tag, err)
		return
	}
	c.s.m.put()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], statusOK)
	c.payload = append(c.payload, id[:]...)
	c.writeLocked(tag)
}

// autoThreshold is the point count from which EngineAuto runs shared
// instead of seq, when the library's selector does not pick the grid.
const autoThreshold = 4096

// known reports whether e is one of the library's engines: its name parses
// back to it.
func known(e Engine) bool {
	got, err := mudbscan.ParseEngine(e.String())
	return err == nil && got == e
}

// resolve applies the daemon's own engine policy to a wire (engine, param)
// pair: auto's choice (the grid cell engine whenever the library's
// auto-selector, cell.Prefer on the stored block, picks it, otherwise seq
// below autoThreshold points and shared at GOMAXPROCS from there), the shared default of one worker (the
// deterministic choice), the dist default of four ranks, and the resource
// caps on the parameter. What the library itself refuses — a cell job on
// data the grid cannot index, a rank count that is not a power of two — it
// refuses when the job runs.
func (s *Server) resolve(engine Engine, param int, ds *dataset, eps float64, minPts int) (Engine, int, error) {
	if !known(engine) {
		return 0, 0, fmt.Errorf("%w: engine byte %d", ErrUnknownEngine, engine)
	}
	if engine == EngineAuto {
		engine, param = EngineSeq, 0
		if cell.Prefer(ds.set, eps, minPts) {
			engine = EngineCell
		} else if ds.set.Len() >= autoThreshold {
			engine, param = EngineShared, runtime.GOMAXPROCS(0)
		}
	}
	if param == 0 && engine == EngineShared {
		param = 1
	}
	if param == 0 && engine == EngineDist {
		param = 4
	}
	if engine == EngineSeq || engine == EngineStream {
		param = 0 // no parameter; one cache entry whatever was sent
	}
	limit := maxSharedWork
	if engine == EngineDist {
		limit = maxDistRanks
	}
	if param < 0 || param > limit {
		return 0, 0, fmt.Errorf("%w: %s parameter %d out of range [0,%d]", ErrBadRequest, engine, param, limit)
	}
	return engine, param, nil
}

func (c *serverConn) handleCluster(tag int64, r *rbuf) {
	id := r.id()
	engine := Engine(r.u8())
	param := int(r.u32())
	eps := r.f64()
	minPts := int(r.u32())
	if !r.done() || !finitePositive(eps) || minPts < 1 {
		c.sendErr(tag, fmt.Errorf("%w: malformed cluster request", ErrBadRequest))
		return
	}
	ds, ok := c.s.store.get(id)
	if !ok {
		c.sendErr(tag, fmt.Errorf("%w: %s", ErrUnknownDataset, id))
		return
	}
	engine, param, err := c.s.resolve(engine, param, ds, eps, minPts)
	if err != nil {
		c.sendErr(tag, err)
		return
	}
	key := resultKey{id: id, epsBits: epsBitsOf(eps), minPts: int32(minPts), engine: engine, param: int32(param)}
	if res, ok := c.s.results.get(key); ok {
		c.sendResult(tag, res)
		return
	}
	j := &job{
		tenant: c.tenant, tag: tag,
		ds: ds, eps: eps, minPts: minPts, engine: engine, param: param, key: key,
		done: func(res *result, err error) {
			if err != nil {
				c.sendErr(tag, err)
				return
			}
			c.sendResult(tag, res)
		},
	}
	if err := c.s.q.push(j); err != nil {
		c.s.m.jobRejected(err)
		c.sendErr(tag, err)
		return
	}
	c.s.m.jobAccepted()
}

func (c *serverConn) sendResult(tag int64, res *result) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	p := append(c.payload[:0], statusOK)
	p = appendU32(p, uint32(res.numClusters))
	p = appendU32(p, uint32(len(res.labels)))
	if res.core != nil {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	for _, l := range res.labels {
		p = appendI64(p, int64(l))
	}
	for _, cf := range res.core {
		if cf {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	c.payload = p
	c.writeLocked(tag)
}

// handleEpsQuery is the steady-state serving path: decode into conn-owned
// buffers, query the cached μR-tree through the arena tier, encode from the
// same buffers. Warmed up, the whole span between frame read and socket
// write runs without allocating — the allocs gate pins that.
func (c *serverConn) handleEpsQuery(tag int64, r *rbuf) {
	c.s.m.epsQuery()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.epsQueryResponse(r)
	c.writeLocked(tag)
}

// epsQueryResponse builds the response body in c.payload. Callers hold
// writeMu. Split from the frame+write step so the allocation gate can
// measure exactly the decode→query→encode span.
func (c *serverConn) epsQueryResponse(r *rbuf) {
	id := r.id()
	eps := r.f64()
	minPts := int(r.u32())
	dim := int(r.u32())
	if r.err || !finitePositive(eps) || minPts < 1 || dim < 1 || dim > maxDim {
		c.payload = appendMsg(c.payload[:0], statusBadRequest, "server: bad request: malformed eps-query")
		return
	}
	c.qpt = r.f64sInto(c.qpt, dim)
	if !r.done() || !allFinite(c.qpt) {
		c.payload = appendMsg(c.payload[:0], statusBadRequest, "server: bad request: malformed eps-query")
		return
	}
	ds, ok := c.s.store.get(id)
	if !ok {
		c.payload = appendMsg(c.payload[:0], statusUnknownDataset, "server: unknown dataset")
		return
	}
	if ds.set.Dim() != dim {
		c.payload = appendMsg(c.payload[:0], statusBadRequest, "server: bad request: dimension mismatch")
		return
	}
	ix := c.s.indexes.build(indexKey{id: id, epsBits: epsBitsOf(eps), minPts: int32(minPts)}, ds, eps, minPts)
	if words := (ds.set.Len() + 63) / 64; len(c.seen) < words {
		c.seen = make([]uint64, words)
	}
	c.payload = append(c.payload[:0], statusOK)
	c.nbhd, c.payload = epsQueryAppend(ix, geom.Point(c.qpt), c.nbhd, c.seen, c.payload)
}

// epsQueryAppend runs the ε-neighborhood query through the arena tier and
// encodes the ids in ascending order. NeighborhoodInto returns each id in
// [0, n) at most once (a point is in exactly one micro-cluster, and the
// centre probe returns each centre once), so setting one bit per id in seen
// and reading the words from the lowest set one to the highest yields the
// ids in order, in O(k + span/64) for k ids spanning span. Each word is
// zeroed as it is read, so seen is all zero again on return. nbhd and dst
// are caller-owned reuse buffers; seen holds at least ⌈n/64⌉ words.
//
//mulint:noalloc
func epsQueryAppend(ix *mc.Index, pt geom.Point, nbhd []int, seen []uint64, dst []byte) ([]int, []byte) {
	nbhd, _ = ix.NeighborhoodInto(pt, nbhd[:0])
	dst = appendU32(dst, uint32(len(nbhd)))
	lo, hi := len(seen), -1
	for _, id := range nbhd {
		w := id >> 6
		seen[w] |= 1 << (id & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for w := lo; w <= hi; w++ {
		for b := seen[w]; b != 0; b &= b - 1 {
			dst = appendU32(dst, uint32(w<<6|bits.TrailingZeros64(b)))
		}
		seen[w] = 0
	}
	return nbhd, dst
}

// finitePositive is the ε every request must carry: NaN and +Inf pass a bare
// "eps <= 0" test and would each build (and cache) an index nothing can use.
func finitePositive(eps float64) bool { return eps > 0 && !math.IsInf(eps, 1) }

// allFinite reports whether vs holds no NaN and no ±Inf.
func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// appendMsg encodes a non-OK status with its message.
func appendMsg(dst []byte, status byte, msg string) []byte {
	dst = append(dst, status)
	return append(dst, msg...)
}

func (c *serverConn) handleCancel(tag int64, r *rbuf) {
	target := r.i64()
	if !r.done() {
		c.sendErr(tag, fmt.Errorf("%w: malformed cancel", ErrBadRequest))
		return
	}
	j := c.s.q.cancel(c.tenant, target)
	if j != nil {
		j.done(nil, ErrCanceled)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], statusOK)
	if j != nil {
		c.payload = append(c.payload, 1)
	} else {
		c.payload = append(c.payload, 0)
	}
	c.writeLocked(tag)
}

func (c *serverConn) handleStats(tag int64) {
	st := c.s.Stats()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], statusOK)
	c.payload = st.encode(c.payload)
	c.writeLocked(tag)
}

// handleStreamOpen creates a connection-scoped stream session and returns
// its id. Sessions are bounded per connection and handled inline on the
// reader goroutine, so they need no queue slot and no lock.
func (c *serverConn) handleStreamOpen(tag int64, r *rbuf) {
	dim := int(r.u32())
	minPts := int(r.u32())
	reserved := int(r.u32()) // unused, but range-checked: an out-of-range value stays a bad request
	eps := r.f64()
	lambda := r.f64()
	prune := r.f64()
	if !r.done() || dim < 1 || dim > maxDim || reserved < 0 || reserved > maxSharedWork {
		c.sendErr(tag, fmt.Errorf("%w: malformed stream-open", ErrBadRequest))
		return
	}
	if len(c.streams) >= maxConnStreams {
		c.sendErr(tag, fmt.Errorf("%w: at most %d stream sessions per connection", ErrBadRequest, maxConnStreams))
		return
	}
	sc, err := stream.New(dim, eps, minPts, stream.Options{Lambda: lambda, PruneBelow: prune})
	if err != nil {
		c.sendErr(tag, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if c.streams == nil {
		c.streams = make(map[uint32]*stream.Clusterer)
	}
	c.nextStream++
	sid := c.nextStream
	c.streams[sid] = sc
	c.s.m.streamOpened()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.payload = append(c.payload[:0], statusOK)
	c.payload = appendU32(c.payload, sid)
	c.writeLocked(tag)
}

// session resolves a stream-session id, or reports the typed refusal.
func (c *serverConn) session(tag int64, r *rbuf) (uint32, *stream.Clusterer, bool) {
	sid := r.u32()
	if r.err {
		c.sendErr(tag, fmt.Errorf("%w: missing stream session id", ErrBadRequest))
		return 0, nil, false
	}
	sc, ok := c.streams[sid]
	if !ok {
		c.sendErr(tag, fmt.Errorf("%w: %d", ErrUnknownStream, sid))
		return 0, nil, false
	}
	return sid, sc, true
}

// handleStreamAdd absorbs a batch of rows into a session in order. On a
// rejected row (wrong arity, non-finite coordinate) the rows before it are
// already absorbed — the error names the failing row so the client can tell.
func (c *serverConn) handleStreamAdd(tag int64, r *rbuf) {
	_, sc, ok := c.session(tag, r)
	if !ok {
		return
	}
	n := int(r.u32())
	if r.err || n < 1 {
		c.sendErr(tag, fmt.Errorf("%w: stream-add wants n >= 1", ErrBadRequest))
		return
	}
	dim := sc.Dim()
	c.coords = r.f64sInto(c.coords, n*dim)
	if !r.done() {
		c.sendErr(tag, fmt.Errorf("%w: stream-add body is not sid+n+%d coords", ErrBadRequest, n*dim))
		return
	}
	for i := 0; i < n; i++ {
		if err := sc.Add(c.coords[i*dim : (i+1)*dim]); err != nil {
			c.s.m.streamAdded(int64(i))
			c.sendErr(tag, fmt.Errorf("%w: row %d: %v", ErrBadRequest, i, err))
			return
		}
	}
	c.s.m.streamAdded(int64(n))
	c.sendOK(tag)
}

// handleStreamSnap serves an exact snapshot of the session's live window:
// the clustering plus each window row's arrival sequence number, so the
// client can map labels back onto what it ingested.
func (c *serverConn) handleStreamSnap(tag int64, r *rbuf) {
	_, sc, ok := c.session(tag, r)
	if !ok {
		return
	}
	if !r.done() {
		c.sendErr(tag, fmt.Errorf("%w: malformed stream-snapshot", ErrBadRequest))
		return
	}
	snap := sc.Snapshot()
	c.s.m.streamSnapped()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	p := append(c.payload[:0], statusOK)
	p = appendU32(p, uint32(snap.NumClusters))
	p = appendU32(p, uint32(snap.Len()))
	for _, l := range snap.Labels {
		p = appendI64(p, int64(l))
	}
	for _, cf := range snap.Core {
		if cf {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	for _, seq := range snap.Seqs {
		p = appendI64(p, seq)
	}
	c.payload = p
	c.writeLocked(tag)
}

func (c *serverConn) handleStreamClose(tag int64, r *rbuf) {
	sid, _, ok := c.session(tag, r)
	if !ok {
		return
	}
	if !r.done() {
		c.sendErr(tag, fmt.Errorf("%w: malformed stream-close", ErrBadRequest))
		return
	}
	delete(c.streams, sid)
	c.sendOK(tag)
}

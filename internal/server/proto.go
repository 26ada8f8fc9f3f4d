// Package server implements mudbscand, the clustering-as-a-service daemon:
// a persistent process that accepts datasets and clustering jobs from many
// concurrent tenants over stdlib net sockets and serves them through the
// exact engines behind the mudbscan.Cluster* API.
//
// Architecture (DESIGN.md §14):
//
//   - Wire protocol: the nettrans length-prefixed frame codec (16-byte
//     header, µREQ/µRSP magics, MaxFrame checked before allocation) carrying
//     a one-byte op plus a little-endian payload. The tag field correlates
//     responses to requests, so one connection may keep many jobs in flight.
//   - Job queue: clustering jobs land in per-tenant bounded FIFOs drained
//     round-robin by a bounded worker pool. A full tenant queue or a full
//     server rejects immediately with a typed error (backpressure, never
//     unbounded buffering), and queued jobs can be cancelled.
//   - Engines: each job selects seq, shared, dist or stream — or auto,
//     which picks from cheap dataset statistics. Every served result is
//     byte-identical to the corresponding direct library call; the
//     conformance suite enforces this per engine on the shared
//     data.ConformanceCases table.
//   - Caching: results are cached by (dataset-hash, ε, minPts, engine,
//     param) with LRU eviction; hits are served as defensive copies, so no
//     cached slice is ever aliased across tenants. ε-neighborhood queries
//     reuse an LRU of built μR-tree indexes.
//   - Buffers: each connection owns its decode/encode buffers, an ε-query
//     arena and an id bitmap of ⌈n/64⌉ words for the largest dataset it has
//     queried (at most MaxFrame/64 bytes, since a Put of n points is at
//     least 8·n bytes). The bitmap puts an answer in id order in
//     O(k + span/64): the ids are distinct and in [0, n), so bit order is
//     ascending order, and each word is zeroed as it is read. Steady-state
//     ε-query serving reuses all of them across requests — AllocsPerRun
//     gates pin the cached ε-query path at zero allocations. A clustering
//     job's run allocates its own query scratch.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mudbscan"
)

// Frame magics, following the nettrans convention (µ prefix, then the
// frame kind). The sets are disjoint from the mpi transport's so a rank
// process dialed by mistake rejects daemon traffic as ErrBadMagic.
//
//mulint:wire server-magic
const (
	// ReqMagic types every client→daemon frame: payload = op byte + body.
	ReqMagic = 0xB5524551 // µREQ
	// RespMagic types every daemon→client frame: payload = status byte +
	// body, tag echoing the request's.
	RespMagic = 0xB5525350 // µRSP
)

// Request ops (first payload byte of a ReqMagic frame). The op space is
// append-only: new ops take the next free number, dead ops keep their slot
// — wireproto pins every value in wire.lock.
//
//mulint:wire server-op
const (
	opHello    = 1 // body: tenant name — must be the first frame on a connection
	opPing     = 2 // body: empty
	opPut      = 3 // body: dim u32, n u32, n*dim f64 coords
	opCluster  = 4 // body: dataset id, engine u8, param u32, eps f64, minPts u32
	opEpsQuery = 5 // body: dataset id, eps f64, minPts u32, dim u32, dim f64 coords
	opCancel   = 6 // body: target tag i64
	opStats    = 7 // body: empty

	// Stream-session ops: a connection may hold live stream clusterers and
	// feed them incrementally, instead of shipping a finished dataset through
	// opPut+opCluster. Sessions are connection-scoped (they die with the
	// connection) and handled inline on the reader goroutine.
	opStreamOpen  = 8  // body: dim u32, minPts u32, reserved u32 (ignored, ≤ 1024), eps f64, lambda f64, pruneBelow f64
	opStreamAdd   = 9  // body: sid u32, n u32, n*dim f64 coords
	opStreamSnap  = 10 // body: sid u32
	opStreamClose = 11 // body: sid u32
)

// Response status codes (first payload byte of a RespMagic frame). Non-OK
// bodies carry a human-readable message; each code maps to one exported
// sentinel error so clients can errors.Is on the cause.
//
//mulint:wire server-status
const (
	statusOK              = 0
	statusBadRequest      = 1
	statusUnknownDataset  = 2
	statusQueueFull       = 3
	statusOverloaded      = 4
	statusShuttingDown    = 5
	statusCanceled        = 6
	statusUnknownEngine   = 7
	statusTooManyDatasets = 8
	statusInternal        = 9
	statusUnknownStream   = 10
)

// Typed errors for every way the daemon refuses work. The queue-related ones
// are the backpressure contract: a client seeing ErrQueueFull or
// ErrOverloaded got a definitive, immediate rejection — nothing was queued.
var (
	// ErrBadRequest reports a request the daemon could parse as a frame but
	// not as an operation (malformed body, dimension mismatch, bad ε).
	ErrBadRequest = errors.New("server: bad request")
	// ErrUnknownDataset reports a dataset id with no Put behind it.
	ErrUnknownDataset = errors.New("server: unknown dataset")
	// ErrQueueFull reports the submitting tenant's queue at capacity.
	ErrQueueFull = errors.New("server: tenant queue full")
	// ErrOverloaded reports the server-wide queue at capacity.
	ErrOverloaded = errors.New("server: server overloaded")
	// ErrShuttingDown reports a job refused because the daemon is stopping.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrCanceled reports a queued job cancelled before execution.
	ErrCanceled = errors.New("server: job canceled")
	// ErrUnknownEngine reports an engine byte outside the known set.
	ErrUnknownEngine = errors.New("server: unknown engine")
	// ErrTooManyDatasets reports the dataset store at capacity.
	ErrTooManyDatasets = errors.New("server: dataset store full")
	// ErrInternal reports an engine failure while running a job.
	ErrInternal = errors.New("server: internal error")
	// ErrUnknownStream reports a stream-session id with no open session
	// behind it on this connection.
	ErrUnknownStream = errors.New("server: unknown stream session")
)

// statusErr maps a non-OK status code to its sentinel error.
func statusErr(code byte) error {
	switch code {
	case statusBadRequest:
		return ErrBadRequest
	case statusUnknownDataset:
		return ErrUnknownDataset
	case statusQueueFull:
		return ErrQueueFull
	case statusOverloaded:
		return ErrOverloaded
	case statusShuttingDown:
		return ErrShuttingDown
	case statusCanceled:
		return ErrCanceled
	case statusUnknownEngine:
		return ErrUnknownEngine
	case statusTooManyDatasets:
		return ErrTooManyDatasets
	case statusInternal:
		return ErrInternal
	case statusUnknownStream:
		return ErrUnknownStream
	default:
		return fmt.Errorf("server: unknown status %d", code)
	}
}

// Engine selects the engine of a clustering job. It is the library's one
// engine enum, mudbscan.Engine: its values are the job's wire byte, its
// names are the CLI's and the stats surface's, and mudbscan.ParseEngine
// parses them. The param a job carries is mudbscan.WithWorkers's.
type Engine = mudbscan.Engine

// The engines, re-exported for the daemon's clients.
const (
	EngineAuto   = mudbscan.EngineAuto
	EngineSeq    = mudbscan.EngineSeq
	EngineShared = mudbscan.EngineShared
	EngineDist   = mudbscan.EngineDist
	EngineStream = mudbscan.EngineStream
	EngineCell   = mudbscan.EngineCell
)

// DatasetID identifies a stored dataset: the SHA-256 of its canonical wire
// encoding (dim u32, n u32, row-major f64 coordinates, little-endian), so
// identical data always maps to the same id and the result cache keys on
// content, not upload order.
type DatasetID [32]byte

// String renders the id in hex.
func (id DatasetID) String() string { return fmt.Sprintf("%x", id[:]) }

// epsBitsOf is the cache identity of an ε value: its exact bit pattern.
func epsBitsOf(eps float64) uint64 { return math.Float64bits(eps) }

// rbuf is a bounds-checked little-endian reader over one request or
// response body. Every decode helper reports failure by latching err; a
// malformed buffer can never panic or over-read — the protocol fuzz target
// hammers the dynamic side of that property, and decodesafe proves the
// static side: every read of b below is dominated by a len guard.
//
//mulint:tainted b
type rbuf struct {
	b   []byte
	err bool
}

func (r *rbuf) fail() { r.err = true }

func (r *rbuf) u8() byte {
	if r.err || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *rbuf) i64() int64 {
	if r.err || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *rbuf) f64() float64 {
	if r.err || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// f64sInto decodes n floats into dst (reused across requests; grown once).
func (r *rbuf) f64sInto(dst []float64, n int) []float64 {
	if r.err || len(r.b) < 8*n {
		r.fail()
		return dst[:0]
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:])))
	}
	r.b = r.b[8*n:]
	return dst
}

func (r *rbuf) id() DatasetID {
	var id DatasetID
	if r.err || len(r.b) < len(id) {
		r.fail()
		return id
	}
	copy(id[:], r.b)
	r.b = r.b[len(id):]
	return id
}

// rest consumes and returns the remaining bytes.
func (r *rbuf) rest() []byte {
	if r.err {
		return nil
	}
	v := r.b
	r.b = nil
	return v
}

// done reports whether the buffer decoded cleanly and completely.
func (r *rbuf) done() bool { return !r.err && len(r.b) == 0 }

// left returns how many bytes are still unread (0 once failed).
func (r *rbuf) left() int {
	if r.err {
		return 0
	}
	return len(r.b)
}

// Append helpers for the write side. All append into caller-owned buffers,
// so warmed paths encode without allocating.

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

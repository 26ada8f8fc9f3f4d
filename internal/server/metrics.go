package server

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// metrics is the daemon's mutex-guarded counter set: the Stats fields the
// daemon counts itself (Server.Stats fills in the queue, store and cache
// ones). The server package is not one of mulint's determinism-pinned
// algorithm packages, so wall-clock latency tracking is allowed here.
type metrics struct {
	mu sync.Mutex
	st Stats
}

func (m *metrics) connOpened() {
	m.mu.Lock()
	m.st.Conns++
	m.st.ConnsOpen++
	m.mu.Unlock()
}

func (m *metrics) connClosed() {
	m.mu.Lock()
	m.st.ConnsOpen--
	m.mu.Unlock()
}

func (m *metrics) jobAccepted() {
	m.mu.Lock()
	m.st.JobsAccepted++
	m.mu.Unlock()
}

func (m *metrics) jobRejected(err error) {
	m.mu.Lock()
	switch err {
	case ErrQueueFull:
		m.st.RejQueueFull++
	case ErrOverloaded:
		m.st.RejOverloaded++
	case ErrShuttingDown:
		m.st.RejShutdown++
	}
	m.mu.Unlock()
}

func (m *metrics) jobDone(engine Engine, d time.Duration, err error) {
	m.mu.Lock()
	switch err {
	case nil:
		m.st.JobsCompleted++
		m.st.PerEngine[engine]++
		m.st.JobTotalNanos += int64(d)
		m.st.JobMaxNanos = max(m.st.JobMaxNanos, int64(d))
	case ErrCanceled:
		m.st.JobsCanceled++
	default:
		m.st.JobsFailed++
	}
	m.mu.Unlock()
}

func (m *metrics) epsQuery() { m.mu.Lock(); m.st.EpsQueries++; m.mu.Unlock() }
func (m *metrics) ping()     { m.mu.Lock(); m.st.Pings++; m.mu.Unlock() }
func (m *metrics) put()      { m.mu.Lock(); m.st.Puts++; m.mu.Unlock() }
func (m *metrics) badFrame() { m.mu.Lock(); m.st.BadFrames++; m.mu.Unlock() }

func (m *metrics) streamOpened()       { m.mu.Lock(); m.st.StreamSessions++; m.mu.Unlock() }
func (m *metrics) streamAdded(n int64) { m.mu.Lock(); m.st.StreamPoints += n; m.mu.Unlock() }
func (m *metrics) streamSnapped()      { m.mu.Lock(); m.st.StreamSnapshots++; m.mu.Unlock() }

// Stats is one consistent snapshot of the daemon's observable state: the
// opStats response body and the `mudbscand stats` / benchtab surface.
type Stats struct {
	Conns     int64 // connections accepted over the daemon's lifetime
	ConnsOpen int64

	JobsAccepted  int64
	JobsCompleted int64
	JobsCanceled  int64
	JobsFailed    int64
	RejQueueFull  int64
	RejOverloaded int64
	RejShutdown   int64
	PerEngine     [1 << 8]int64 // completed jobs by resolved engine, indexed by its wire byte

	EpsQueries int64
	Pings      int64
	Puts       int64
	BadFrames  int64

	StreamSessions  int64 // stream sessions opened over the daemon's lifetime
	StreamPoints    int64 // points absorbed through opStreamAdd
	StreamSnapshots int64 // snapshots served through opStreamSnap

	JobTotalNanos int64
	JobMaxNanos   int64

	QueueDepth int64
	Datasets   int64

	ResultHits, ResultMisses, ResultEvictions, ResultSize int64
	IndexHits, IndexMisses, IndexEvictions, IndexSize     int64
}

func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// statsFields enumerates the snapshot as ordered (name, value) pairs — one
// definition shared by the wire encoding and the text rendering, so the two
// can never disagree on field order.
func (s *Stats) statsFields() []statsField {
	fields := []statsField{
		{"conns_total", s.Conns},
		{"conns_open", s.ConnsOpen},
		{"jobs_accepted", s.JobsAccepted},
		{"jobs_completed", s.JobsCompleted},
		{"jobs_canceled", s.JobsCanceled},
		{"jobs_failed", s.JobsFailed},
		{"rejected_queue_full", s.RejQueueFull},
		{"rejected_overloaded", s.RejOverloaded},
		{"rejected_shutdown", s.RejShutdown},
	}
	// Jobs are counted under their resolved engine, never auto.
	for e := EngineSeq; known(e); e++ {
		fields = append(fields, statsField{"jobs_engine_" + e.String(), s.PerEngine[e]})
	}
	return append(fields,
		statsField{"eps_queries", s.EpsQueries},
		statsField{"pings", s.Pings},
		statsField{"puts", s.Puts},
		statsField{"bad_frames", s.BadFrames},
		statsField{"stream_sessions", s.StreamSessions},
		statsField{"stream_points", s.StreamPoints},
		statsField{"stream_snapshots", s.StreamSnapshots},
		statsField{"job_time_total_ns", s.JobTotalNanos},
		statsField{"job_time_max_ns", s.JobMaxNanos},
		statsField{"queue_depth", s.QueueDepth},
		statsField{"datasets", s.Datasets},
		statsField{"result_cache_hits", s.ResultHits},
		statsField{"result_cache_misses", s.ResultMisses},
		statsField{"result_cache_evictions", s.ResultEvictions},
		statsField{"result_cache_size", s.ResultSize},
		statsField{"index_cache_hits", s.IndexHits},
		statsField{"index_cache_misses", s.IndexMisses},
		statsField{"index_cache_evictions", s.IndexEvictions},
		statsField{"index_cache_size", s.IndexSize},
	)
}

type statsField struct {
	name string
	val  int64
}

// String renders the snapshot in /metricsz style: one "name value" line per
// counter, fixed order, trivially greppable and diffable.
func (s Stats) String() string {
	var b strings.Builder
	for _, f := range s.statsFields() {
		fmt.Fprintf(&b, "%s %d\n", f.name, f.val)
	}
	return b.String()
}

// encode appends the snapshot to dst as the opStats response body: a u32
// field count, then per field a u32 name length, the name bytes, and the
// value as i64. Self-describing, so old clients tolerate new counters.
func (s *Stats) encode(dst []byte) []byte {
	fields := s.statsFields()
	dst = appendU32(dst, uint32(len(fields)))
	for _, f := range fields {
		dst = appendU32(dst, uint32(len(f.name)))
		dst = append(dst, f.name...)
		dst = appendI64(dst, f.val)
	}
	return dst
}

// decodeStats parses an opStats response body into name→value pairs.
func decodeStats(body []byte) (map[string]int64, error) {
	r := rbuf{b: body}
	n := int(r.u32())
	if r.err || n < 0 || n > 1<<16 {
		return nil, ErrBadRequest
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		nameLen := int(r.u32())
		if r.err || nameLen < 0 || nameLen > len(r.b) {
			return nil, ErrBadRequest
		}
		name := string(r.b[:nameLen])
		r.b = r.b[nameLen:]
		out[name] = r.i64()
	}
	if !r.done() {
		return nil, ErrBadRequest
	}
	return out, nil
}

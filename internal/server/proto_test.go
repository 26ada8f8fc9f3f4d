package server

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestRbufDecodesAndLatches(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = appendU32(b, 0xDEAD)
	b = appendI64(b, -42)
	b = appendF64(b, math.Pi)
	b = appendF64(b, 1.5)
	b = appendF64(b, 2.5)

	r := rbuf{b: b}
	if v := r.u8(); v != 7 {
		t.Fatalf("u8 = %d", v)
	}
	if v := r.u32(); v != 0xDEAD {
		t.Fatalf("u32 = %#x", v)
	}
	if v := r.i64(); v != -42 {
		t.Fatalf("i64 = %d", v)
	}
	if v := r.f64(); v != math.Pi {
		t.Fatalf("f64 = %v", v)
	}
	fs := r.f64sInto(nil, 2)
	if !reflect.DeepEqual(fs, []float64{1.5, 2.5}) {
		t.Fatalf("f64sInto = %v", fs)
	}
	if !r.done() {
		t.Fatal("buffer should be cleanly consumed")
	}
	// Over-reading latches the error; every later read is a safe zero.
	if v := r.u32(); v != 0 || !r.err {
		t.Fatal("over-read must latch the error")
	}
	if r.done() {
		t.Fatal("done must report the latched error")
	}
	// Latching also protects partial reads: 3 bytes cannot yield a u32.
	r2 := rbuf{b: []byte{1, 2, 3}}
	if r2.u32(); !r2.err {
		t.Fatal("short u32 must latch")
	}
	if got := r2.f64sInto(make([]float64, 0, 4), 1); len(got) != 0 {
		t.Fatal("f64sInto after latch must return empty")
	}
	if r2.rest() != nil {
		t.Fatal("rest after latch must be nil")
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	for code := byte(1); code <= statusInternal; code++ {
		err := statusErr(code)
		if errStatus(err) != code {
			t.Fatalf("status %d round-tripped to %d", code, errStatus(err))
		}
	}
}

func TestStatsEncodeDecodeRoundTrip(t *testing.T) {
	s := Stats{
		Conns: 3, ConnsOpen: 1, JobsAccepted: 17, JobsCompleted: 15,
		JobsCanceled: 1, JobsFailed: 1, RejQueueFull: 2, RejOverloaded: 4,
		EpsQueries: 99, Pings: 5, Puts: 7, QueueDepth: 2, Datasets: 3,
		ResultHits: 10, ResultMisses: 5, ResultEvictions: 1, ResultSize: 4,
		IndexHits: 6, IndexMisses: 2, IndexEvictions: 0, IndexSize: 2,
		JobTotalNanos: 123456, JobMaxNanos: 9999,
	}
	s.PerEngine[EngineSeq] = 9
	s.PerEngine[EngineDist] = 6

	m, err := decodeStats(s.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"conns_total": 3, "jobs_accepted": 17, "jobs_engine_seq": 9,
		"jobs_engine_dist": 6, "eps_queries": 99, "result_cache_hits": 10,
		"queue_depth": 2, "job_time_max_ns": 9999,
	}
	for name, want := range checks {
		if m[name] != want {
			t.Fatalf("%s = %d, want %d", name, m[name], want)
		}
	}
	// The text surface renders the same fields in the same order.
	text := s.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != len(m) {
		t.Fatalf("text has %d lines, wire has %d fields", len(lines), len(m))
	}
	if !strings.HasPrefix(lines[0], "conns_total 3") {
		t.Fatalf("first line %q", lines[0])
	}

	// The wire carries exactly these names in exactly this order: clients
	// and scripts read them, so a rename or a reorder is a protocol change.
	wantNames := []string{
		"conns_total", "conns_open",
		"jobs_accepted", "jobs_completed", "jobs_canceled", "jobs_failed",
		"rejected_queue_full", "rejected_overloaded", "rejected_shutdown",
		"jobs_engine_seq", "jobs_engine_shared", "jobs_engine_dist",
		"jobs_engine_stream", "jobs_engine_cell",
		"eps_queries", "pings", "puts", "bad_frames",
		"stream_sessions", "stream_points", "stream_snapshots",
		"job_time_total_ns", "job_time_max_ns",
		"queue_depth", "datasets",
		"result_cache_hits", "result_cache_misses", "result_cache_evictions", "result_cache_size",
		"index_cache_hits", "index_cache_misses", "index_cache_evictions", "index_cache_size",
	}
	r := rbuf{b: s.encode(nil)}
	var gotNames []string
	for n := int(r.u32()); n > 0 && !r.err; n-- {
		nameLen := int(r.u32())
		gotNames = append(gotNames, string(r.b[:nameLen]))
		r.b = r.b[nameLen:]
		r.i64()
	}
	if !r.done() || !slices.Equal(gotNames, wantNames) {
		t.Fatalf("wire stats names\n got %q\nwant %q", gotNames, wantNames)
	}

	for _, bad := range [][]byte{{1}, appendU32(nil, 1<<20), appendU32(appendU32(nil, 1), 1000)} {
		if _, err := decodeStats(bad); err == nil {
			t.Fatalf("malformed stats body %v decoded", bad)
		}
	}
}

// FuzzHandleFrame throws arbitrary request payloads at the dispatch layer —
// both pre- and post-hello — asserting only that the daemon neither panics
// nor over-reads. The bounds-latching rbuf is the property under test.
func FuzzHandleFrame(f *testing.F) {
	f.Add([]byte{opHello, 't', 'x'})
	f.Add([]byte{opPing})
	f.Add([]byte{opStats})
	f.Add([]byte{opCancel, 1, 2, 3, 4, 5, 6, 7, 8})
	put := func(last float64) []byte {
		b := appendU32(appendU32([]byte{opPut}, 2), 2)
		for _, v := range []float64{0, 1, 2, last} {
			b = appendF64(b, v)
		}
		return b
	}
	cluster := func(eps float64) []byte {
		b := append([]byte{opCluster}, make([]byte, 32)...)
		b = appendU32(append(b, byte(EngineSeq)), 0)
		return appendU32(appendF64(b, eps), 4)
	}
	epsq := func(eps, y float64) []byte {
		b := append([]byte{opEpsQuery}, make([]byte, 32)...)
		b = appendU32(appendU32(appendF64(b, eps), 4), 2)
		return appendF64(appendF64(b, 1), y)
	}
	f.Add(put(3))
	f.Add(cluster(0.5))
	f.Add(epsq(0.5, 2))
	// The same frames carrying non-finite floats: a bad request each, and
	// never an index built under a garbage ε.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(put(bad))
		f.Add(cluster(bad))
		f.Add(epsq(bad, 2))
		f.Add(epsq(0.5, bad))
	}
	f.Add([]byte{})
	f.Add([]byte{200, 1})

	srv := New(Config{Workers: 1, QueuePerTenant: 2, QueueTotal: 4, MaxDatasets: 4})
	defer srv.Close()
	f.Fuzz(func(t *testing.T, payload []byte) {
		fresh := &serverConn{s: srv, c: discardConn{}}
		fresh.handleFrame(1, payload)
		authed := &serverConn{s: srv, c: discardConn{}, tenant: "fuzz"}
		authed.handleFrame(2, payload)
	})
}

package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"testing"

	"mudbscan"
	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
	"mudbscan/internal/geom"
	"mudbscan/internal/stream"
)

// startServer runs a daemon on a loopback listener and tears it down (with
// its goroutines) when the test ends.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dialTenant(t *testing.T, addr, tenant string) *Client {
	t.Helper()
	c, err := Dial("tcp", addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func toRows(pts []geom.Point) [][]float64 {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	return rows
}

// streamDirect replicates the daemon's stream engine with direct library
// calls: ingest in row order through the streaming tier, then map the final
// exact snapshot back onto the rows.
func streamDirect(t *testing.T, rows [][]float64, eps float64, minPts int) *clustering.Result {
	t.Helper()
	r, err := mudbscan.ClusterStream(rows, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustDeepEqual(t *testing.T, want, got *clustering.Result, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("%s: labels differ from direct call", what)
	}
	if !reflect.DeepEqual(want.Core, got.Core) {
		t.Fatalf("%s: core flags differ from direct call", what)
	}
	if want.NumClusters != got.NumClusters {
		t.Fatalf("%s: clusters %d vs direct %d", what, got.NumClusters, want.NumClusters)
	}
}

// TestDaemonConformance is the daemon conformance suite: every conformance
// dataset, through the wire protocol, on every engine, must come back
// byte-identical to the direct mudbscan.Cluster* call with the same options.
// The one documented exception is shared with more than one worker, whose
// border ownership is first-core-wins between runs: there the served result
// must be exactly equivalent (same partition, same cores, same noise) and
// a repeat request must replay the cached bytes verbatim.
func TestDaemonConformance(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	cl := dialTenant(t, addr, "conformance")

	for _, cc := range data.ConformanceCases() {
		rows := toRows(cc.Pts)
		id, err := cl.Put(rows)
		if err != nil {
			t.Fatalf("%s: put: %v", cc.Name, err)
		}

		t.Run(cc.Name+"/seq", func(t *testing.T) {
			want, err := mudbscan.Cluster(rows, cc.Eps, cc.MinPts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineSeq, 0)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "seq")
		})

		t.Run(cc.Name+"/shared-1", func(t *testing.T) {
			want, _, err := mudbscan.ClusterWithStats(rows, cc.Eps, cc.MinPts, mudbscan.WithEngine(EngineShared), mudbscan.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineShared, 1)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "shared-1")
		})

		t.Run(cc.Name+"/shared-4", func(t *testing.T) {
			want, _, err := mudbscan.ClusterWithStats(rows, cc.Eps, cc.MinPts, mudbscan.WithEngine(EngineShared), mudbscan.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineShared, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := clustering.Equivalent(want, got); err != nil {
				t.Fatalf("shared-4 not equivalent to direct call: %v", err)
			}
			if !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatal("shared-4 core flags differ from direct call")
			}
			// Once computed, the cache must replay the same bytes forever.
			again, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineShared, 4)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, got, again, "shared-4 cached replay")
		})

		t.Run(cc.Name+"/dist", func(t *testing.T) {
			want, _, err := mudbscan.ClusterDistributed(rows, cc.Eps, cc.MinPts, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineDist, 4)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "dist")
		})

		t.Run(cc.Name+"/stream", func(t *testing.T) {
			// The streaming tier is exact: its landmark in-order result is the
			// sequential engine's, byte for byte, and the wire param (which
			// the engine ignores) never changes it.
			want := streamDirect(t, rows, cc.Eps, cc.MinPts)
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineStream, 0)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "stream")
			seq, err := mudbscan.Cluster(rows, cc.Eps, cc.MinPts)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, seq, got, "stream vs seq engine")
			again, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineStream, 3)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, got, again, "stream param=3")
		})

		t.Run(cc.Name+"/cell", func(t *testing.T) {
			want, err := mudbscan.Cluster(rows, cc.Eps, cc.MinPts, mudbscan.WithEngine(mudbscan.EngineCell))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineCell, 0)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "cell")
			// The cell engine is worker-invariant, so a different worker
			// count must still serve identical bytes.
			again, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineCell, 3)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, got, again, "cell workers=3")
		})

		t.Run(cc.Name+"/auto", func(t *testing.T) {
			// Auto now defers to the library's profile-based selector, so the
			// served bytes must match the direct EngineAuto call whatever
			// concrete engine it picks. (Every conformance dataset is d ≤ 3,
			// so in practice auto lands on the cell engine here.)
			want, err := mudbscan.Cluster(rows, cc.Eps, cc.MinPts, mudbscan.WithEngine(mudbscan.EngineAuto))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Cluster(id, cc.Eps, cc.MinPts, EngineAuto, 0)
			if err != nil {
				t.Fatal(err)
			}
			mustDeepEqual(t, want, got, "auto")
		})
	}
}

// TestDaemonStreamSession drives the incremental stream-session ops against
// the direct library pipeline: every mid-stream snapshot served over the
// wire must be byte-identical to a direct stream.Clusterer fed the same
// prefix, in landmark and damped modes alike.
func TestDaemonStreamSession(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	cl := dialTenant(t, addr, "stream-session")

	for _, tc := range []struct {
		name          string
		lambda, prune float64
	}{
		{"landmark", 0, 0},
		{"damped", 0.05, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := data.ConformanceCases()[0]
			rows := toRows(cc.Pts)
			h, err := cl.StreamOpen(len(rows[0]), cc.Eps, cc.MinPts, tc.lambda, tc.prune)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := stream.New(len(rows[0]), cc.Eps, cc.MinPts,
				stream.Options{Lambda: tc.lambda, PruneBelow: tc.prune})
			if err != nil {
				t.Fatal(err)
			}
			for chunk := 0; chunk < len(rows); chunk += 40 {
				end := min(chunk+40, len(rows))
				if err := h.Add(rows[chunk:end]); err != nil {
					t.Fatal(err)
				}
				for _, row := range rows[chunk:end] {
					if err := direct.Add(row); err != nil {
						t.Fatal(err)
					}
				}
				got, seqs, err := h.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snap := direct.Snapshot()
				want := snap.Result()
				if !reflect.DeepEqual(want.Labels, got.Labels) ||
					!reflect.DeepEqual(want.Core, got.Core) ||
					want.NumClusters != got.NumClusters {
					t.Fatalf("served snapshot after %d rows differs from direct stream", end)
				}
				if !reflect.DeepEqual(snap.Seqs, seqs) {
					t.Fatalf("served seqs after %d rows differ from direct stream", end)
				}
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.Snapshot(); !errors.Is(err, ErrUnknownStream) {
				t.Fatalf("snapshot after close: got %v, want ErrUnknownStream", err)
			}
		})
	}
}

// TestDaemonStreamSessionLimits walks the stream-session refusal surface:
// malformed opens, the per-connection session cap, and row validation
// through the wire.
func TestDaemonStreamSessionLimits(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	cl := dialTenant(t, addr, "stream-limits")

	if _, err := cl.StreamOpen(0, 0.5, 3, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("dim 0: got %v, want ErrBadRequest", err)
	}
	if _, err := cl.StreamOpen(2, -1, 3, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad eps: got %v, want ErrBadRequest", err)
	}
	if _, err := cl.StreamOpen(2, 0.5, 3, 0.1, 1.5); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("pruneBelow out of (0,1): got %v, want ErrBadRequest", err)
	}

	// The reserved u32 is unused but range-checked.
	body := appendU32(appendU32(appendU32(nil, 2), 3), maxSharedWork+1)
	body = appendF64(appendF64(appendF64(body, 0.5), 0), 0)
	if _, _, err := cl.roundTrip(opStreamOpen, body); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reserved field out of range: got %v, want ErrBadRequest", err)
	}

	handles := make([]*StreamHandle, 0, maxConnStreams)
	for i := 0; i < maxConnStreams; i++ {
		h, err := cl.StreamOpen(2, 0.5, 3, 0, 0)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := cl.StreamOpen(2, 0.5, 3, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("over session cap: got %v, want ErrBadRequest", err)
	}
	// Closing one frees a slot.
	if err := handles[0].Close(); err != nil {
		t.Fatal(err)
	}
	h, err := cl.StreamOpen(2, 0.5, 3, 0, 0)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}

	// A NaN row is rejected by the engine; the rows before it are absorbed.
	err = h.Add([][]float64{{0, 0}, {0.1, 0.1}, {math.NaN(), 0}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN row: got %v, want ErrBadRequest", err)
	}
	got, seqs, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Labels) != 2 || len(seqs) != 2 {
		t.Fatalf("window holds %d rows, want the 2 absorbed before the bad row", len(got.Labels))
	}
	// Sessions are per connection: another tenant cannot see this sid.
	other := dialTenant(t, addr, "other")
	oh := &StreamHandle{sid: h.sid, dim: 2, c: other}
	if _, _, err := oh.Snapshot(); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("cross-connection sid: got %v, want ErrUnknownStream", err)
	}
}

// TestDaemonEpsQueryMatchesDirect pins the ε-query serving path to the
// direct geometry: the returned ids must be exactly the points strictly
// within ε, in ascending order. Every conformance dataset and a wide one are
// stored on one connection and queried round-robin, so consecutive answers
// come from datasets of different n: a bitmap word left set by one answer
// shows up in the next, and a bitmap sized to a smaller dataset fails the
// next larger one.
func TestDaemonEpsQueryMatchesDirect(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	cl := dialTenant(t, addr, "epsq")

	type query struct {
		cc data.ConformanceCase
		id DatasetID
		q  geom.Point
	}
	var perSet [][]query
	for _, cc := range append(data.ConformanceCases(), wideEpsQueryCases(t)...) {
		id, err := cl.Put(toRows(cc.Pts))
		if err != nil {
			t.Fatalf("%s: put: %v", cc.Name, err)
		}
		var qs []query
		for _, q := range epsQueryPoints(cc) {
			qs = append(qs, query{cc, id, q})
		}
		perSet = append(perSet, qs)
	}
	for round, asked := 0, true; asked; round++ {
		asked = false
		for _, qs := range perSet {
			if round >= len(qs) {
				continue
			}
			asked = true
			qu := qs[round]
			got, err := cl.EpsQuery(qu.id, qu.cc.Eps, qu.cc.MinPts, qu.q)
			if err != nil {
				t.Fatalf("%s query %d: %v", qu.cc.Name, round, err)
			}
			if want := bruteEpsQuery(qu.cc.Pts, qu.q, qu.cc.Eps); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s query %d at %v: served %v, brute force %v", qu.cc.Name, round, qu.q, got, want)
			}
		}
	}
}

// epsQueryPoints is the query set for one dataset: every 17th row, then
// points that are not rows — the row pushed exactly ε along one axis (the
// strict boundary), the midpoint of two rows, and a point 0.5ε, 1.5ε or 2.5ε
// beyond the data's bounding box.
func epsQueryPoints(cc data.ConformanceCase) []geom.Point {
	var queries []geom.Point
	hull := geom.MBRFromPoints(cc.Pts)
	for qi := 0; qi < len(cc.Pts); qi += 17 {
		p := cc.Pts[qi]
		queries = append(queries, p)
		axis := qi % len(p)
		shifted := p.Clone()
		shifted[axis] += cc.Eps
		mid := p.Clone()
		for j, v := range cc.Pts[(qi*7+3)%len(cc.Pts)] {
			mid[j] = (mid[j] + v) / 2
		}
		outside := p.Clone()
		outside[axis] = hull.Max[axis] + (float64(qi%3)+0.5)*cc.Eps
		queries = append(queries, shifted, mid, outside)
	}
	return queries
}

// wideEpsQueryCases is a 1 200-point 2-d dataset whose answers span many
// 64-bit words: rows 0, 63, 64 and n−1 — the first and last bit of a word
// and of the bitmap — sit together at the centre of a uniform square, so the
// query at row 0 holds all four among ids scattered over every word. At
// ε = 0.5 the answers are a few dozen ids; at ε = 10 each is every id.
func wideEpsQueryCases(t *testing.T) []data.ConformanceCase {
	t.Helper()
	const n = 1200
	rng := rand.New(rand.NewSource(64))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 4, rng.Float64() * 4}
	}
	for _, i := range []int{0, 63, 64, n - 1} {
		pts[i] = geom.Point{2, 2}
	}
	cases := []data.ConformanceCase{
		{Name: "wide", Pts: pts, Eps: 0.5, MinPts: 5},
		{Name: "wide-all", Pts: pts, Eps: 10, MinPts: 5},
	}
	want := bruteEpsQuery(pts, pts[0], cases[0].Eps)
	for _, id := range []int{0, 63, 64, n - 1} {
		if _, ok := slices.BinarySearch(want, id); !ok {
			t.Fatalf("wide dataset: the query at row 0 misses id %d", id)
		}
	}
	return cases
}

// bruteEpsQuery is the ε-query by definition: every point strictly within
// eps of q, in id order (an empty answer is an empty slice, as served).
func bruteEpsQuery(pts []geom.Point, q geom.Point, eps float64) []int {
	ids := []int{}
	for j, p := range pts {
		if geom.Within(q, p, eps) {
			ids = append(ids, j)
		}
	}
	return ids
}

// FuzzDaemonEpsQuery holds the served ε-query to brute force on
// byte-derived data. b[0] picks the dimension (1–4), MinPts and ε — 0.75, or
// one ulp above or below it (b[0]>>5) — b[1] the size of the first dataset,
// and the bytes after them are coordinates on a lattice of step 0.375, so
// pairs at exactly ε, and tree nodes whose farthest corner is at exactly ε,
// one ulp inside or one ulp outside the ball, occur (the seed-corner-*
// corpus entries; seed-whole-two-leaves has a two-leaf tree wholly inside).
// The second dataset is every decoded point (up to 300), the first a prefix
// of it; eight lattice queries alternate between the two on one connection,
// starting with the smaller, so a bitmap word left set or a bitmap sized to
// the first dataset shows up as a wrong answer.
func FuzzDaemonEpsQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		dim := 1 + int(b[0])%4
		minPts := 1 + int(b[0]>>2)%8
		const step = 0.75 / 2
		eps := [3]float64{2 * step, math.Nextafter(2*step, 1), math.Nextafter(2*step, 0)}[int(b[0]>>5)%3]
		var pts []geom.Point
		for body := b[2:]; len(body) >= dim && len(pts) < 300; body = body[dim:] {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = float64(body[j]%16) * step
			}
			pts = append(pts, p)
		}
		if len(pts) == 0 {
			return
		}
		sets := [2][]geom.Point{pts[:1+int(b[1])%len(pts)], pts}
		srv := New(Config{Workers: 1})
		defer srv.Close()
		var ids [2]DatasetID
		for s, set := range sets {
			var coords []float64
			for _, p := range set {
				coords = append(coords, p...)
			}
			id, err := srv.store.put(dim, coords)
			if err != nil {
				t.Fatal(err)
			}
			ids[s] = id
		}
		c := &serverConn{s: srv, tenant: "fuzz"}
		q := make(geom.Point, dim)
		for i := 0; i < 8; i++ {
			for j := range q {
				q[j] = float64(b[(i*dim+j)%len(b)]%16) * step
			}
			r := rbuf{b: appendEpsQuery(nil, ids[i%2], eps, minPts, q)}
			c.epsQueryResponse(&r)
			if c.payload[0] != statusOK {
				t.Fatalf("query %d: status %d: %s", i, c.payload[0], c.payload[1:])
			}
			got, err := decodeIDs(c.payload[1:])
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteEpsQuery(sets[i%2], q, eps); !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d at %v over %d points: served %v, brute force %v", i, q, len(sets[i%2]), got, want)
			}
		}
	})
}

// TestDaemonRejectsMalformedRequests walks the typed-error surface.
func TestDaemonRejectsMalformedRequests(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1, MaxDatasets: 1})
	cl := dialTenant(t, addr, "bad")

	id, err := cl.Put([][]float64{{0, 0}, {1, 1}, {0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}

	assertIs := func(err, want error, what string) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", what, err, want)
		}
	}
	_, err = cl.Cluster(DatasetID{1}, 0.5, 3, EngineSeq, 0)
	assertIs(err, ErrUnknownDataset, "unknown dataset")
	_, err = cl.Cluster(id, -1, 3, EngineSeq, 0)
	assertIs(err, ErrBadRequest, "negative eps")
	_, err = cl.Cluster(id, 0.5, 0, EngineSeq, 0)
	assertIs(err, ErrBadRequest, "zero minPts")
	_, err = cl.Cluster(id, 0.5, 3, Engine(200), 0)
	assertIs(err, ErrUnknownEngine, "engine byte")
	_, err = cl.Cluster(id, 0.5, 3, EngineDist, 3)
	assertIs(err, ErrBadRequest, "non-power-of-two ranks")
	_, err = cl.Put([][]float64{{9, 9}, {8, 8}, {7, 7}})
	assertIs(err, ErrTooManyDatasets, "store full")
	_, err = cl.EpsQuery(id, 0.5, 3, []float64{0, 0, 0})
	assertIs(err, ErrBadRequest, "eps-query dim mismatch")

	// Non-finite input is a bad request on every op that takes a float,
	// and is refused before any index is built for it.
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []float64{nan, inf, -inf} {
		_, err = cl.Cluster(id, bad, 3, EngineSeq, 0)
		assertIs(err, ErrBadRequest, fmt.Sprintf("cluster eps %v", bad))
		_, err = cl.EpsQuery(id, bad, 3, []float64{0, 0})
		assertIs(err, ErrBadRequest, fmt.Sprintf("eps-query eps %v", bad))
		_, err = cl.EpsQuery(id, 0.5, 3, []float64{0, bad})
		assertIs(err, ErrBadRequest, fmt.Sprintf("eps-query coordinate %v", bad))
		_, err = cl.Put([][]float64{{0, 0}, {bad, 1}})
		assertIs(err, ErrBadRequest, fmt.Sprintf("put coordinate %v", bad))
	}
	if st := srv.Stats(); st.IndexMisses != 0 || st.IndexSize != 0 {
		t.Fatalf("rejected requests reached the index cache: misses=%d size=%d", st.IndexMisses, st.IndexSize)
	}
}

// TestDaemonCellRange drives the grid's representability bound over the
// wire: eight points 1e30 apart are all noise at eps 1. An explicit cell
// request is rejected at resolve; auto, which used to pick the cell engine
// and serve one merged cluster, serves the exact answer.
func TestDaemonCellRange(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	cl := dialTenant(t, addr, "far")
	rows := make([][]float64, 8)
	for k := range rows {
		rows[k] = []float64{float64(k) * 1e30, 0}
	}
	id, err := cl.Put(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cluster(id, 1, 2, EngineCell, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("explicit cell engine: got %v, want ErrBadRequest", err)
	}
	got, err := cl.Cluster(id, 1, 2, EngineAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 0 || got.NumNoise() != len(rows) {
		t.Fatalf("auto engine: %d clusters, %d noise; want all %d points noise",
			got.NumClusters, got.NumNoise(), len(rows))
	}
}

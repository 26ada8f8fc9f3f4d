package server

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

// discardConn satisfies net.Conn for encoder gates: writes vanish without
// allocating, so the measurement sees only the serving path itself.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestEpsQueryResponseZeroAllocs pins the daemon's steady-state serving
// claim: once a connection's buffers and the μR-tree index cache are warm, a
// cached ε-query — body decode, store and index lookups, the arena-tier
// neighborhood query, the id-order bitmap pass, and response encode —
// performs zero heap allocations. Only the inherently allocating frame read
// and the socket write sit outside this span. The queries alternate between
// two datasets of different n, so the bitmap is sized once, for the larger,
// and not again on every switch.
func TestEpsQueryResponseZeroAllocs(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Close() })

	rng := rand.New(rand.NewSource(99))
	eps, minPts := 0.8, 5
	// One query body per distinct query point and dataset, interleaved so the
	// gate covers varying neighborhood sizes and both bitmap extents, not one
	// lucky cached answer.
	var perSet [2][][]byte
	for s, n := range []int{700, 2000} {
		coords := make([]float64, 0, n*3)
		for i := 0; i < n*3; i++ {
			coords = append(coords, rng.Float64()*10)
		}
		id, err := srv.store.put(3, coords)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			row := q * (n / 12)
			perSet[s] = append(perSet[s], appendEpsQuery(nil, id, eps, minPts, coords[row*3:row*3+3]))
		}
	}
	var bodies [][]byte
	for q := 0; q < 8; q++ {
		bodies = append(bodies, perSet[0][q], perSet[1][q])
	}

	c := &serverConn{s: srv, tenant: "gate"}
	run := func(body []byte) {
		r := rbuf{b: body}
		c.epsQueryResponse(&r)
		if len(c.payload) == 0 || c.payload[0] != statusOK {
			t.Fatal("eps-query response not OK")
		}
	}
	for _, b := range bodies {
		run(b) // warm: builds both indexes once, grows the conn buffers
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		run(bodies[k%len(bodies)])
		k++
	})
	if allocs != 0 {
		t.Fatalf("warmed eps-query served with %.1f allocs per request; want 0", allocs)
	}
}

// TestSendResultZeroAllocsWhenWarm pins the cluster-response encoder: a
// cache-hit replay reuses the connection's payload and frame buffers, so
// encoding N labels + core flags allocates only the defensive result copy
// made by the cache — the encoder itself adds nothing.
func TestSendResultZeroAllocsWhenWarm(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Close() })

	labels := make([]int, 4096)
	core := make([]bool, 4096)
	for i := range labels {
		labels[i] = i % 7
		core[i] = i%3 == 0
	}
	res := &result{labels: labels, core: core, numClusters: 7}

	c := &serverConn{s: srv, tenant: "gate", c: discardConn{}}
	c.sendResult(1, res) // warm the payload and frame buffers
	allocs := testing.AllocsPerRun(100, func() {
		c.sendResult(1, res)
	})
	if allocs != 0 {
		t.Fatalf("warmed result encode allocated %.1f times; want 0", allocs)
	}
}

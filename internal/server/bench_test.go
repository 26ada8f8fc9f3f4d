package server

import (
	"testing"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// BenchmarkEpsQueryResponse times the daemon's warm ε-query span — body
// decode, store and index lookups, the neighborhood query, the id-order pass
// and the response encode — without the socket, on the two high-d workloads
// where the answers run to thousands of ids. The query points are dataset
// rows taken at a fixed stride; hits/op is the mean answer size.
func BenchmarkEpsQueryResponse(b *testing.B) {
	for _, w := range []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
	}{
		{"household5d", data.HouseholdLike(20000, 5, 1), 0.25, 6},
		{"bio14d", data.BioLike(14500, 14, 1), 600, 5},
	} {
		b.Run(w.name, func(b *testing.B) {
			srv := New(Config{Workers: 1})
			b.Cleanup(func() { srv.Close() })
			dim := len(w.pts[0])
			coords := make([]float64, 0, len(w.pts)*dim)
			for _, p := range w.pts {
				coords = append(coords, p...)
			}
			id, err := srv.store.put(dim, coords)
			if err != nil {
				b.Fatal(err)
			}
			var bodies [][]byte
			for q := 0; q < len(w.pts); q += len(w.pts) / 64 {
				bodies = append(bodies, appendEpsQuery(nil, id, w.eps, w.minPts, w.pts[q]))
			}
			c := &serverConn{s: srv, tenant: "bench"}
			run := func(body []byte) int {
				r := rbuf{b: body}
				c.epsQueryResponse(&r)
				if len(c.payload) < 5 || c.payload[0] != statusOK {
					b.Fatal("eps-query response not OK")
				}
				return (len(c.payload) - 5) / 4
			}
			for _, body := range bodies {
				run(body) // builds the index once, grows the conn buffers
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits += run(bodies[i%len(bodies)])
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

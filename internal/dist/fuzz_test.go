package dist

import (
	"reflect"
	"testing"

	"mudbscan/internal/clustering"
	"mudbscan/internal/dbscan"
	"mudbscan/internal/geom"
)

// FuzzDistBoundaryExactness fuzzes μDBSCAN-D against brute-force DBSCAN on
// adversarially quantized inputs: coordinates are multiples of 0.5 in a
// small range and eps is exactly 1, so points routinely sit exactly on kd
// median splits, exactly on ε-halo region boundaries, and at distance
// exactly eps from each other (excluded — neighborhoods are strict <). All
// quantities are exactly representable in binary floating point, so any
// serial/distributed or serial/concurrent divergence is an algorithmic bug,
// not rounding. Both execution modes run on every input and must agree
// byte for byte.
func FuzzDistBoundaryExactness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, byte(0), byte(1), int64(1))
	f.Add([]byte{2, 2, 2, 2, 6, 6, 6, 6, 4, 4, 4, 4, 0, 8, 0, 8}, byte(1), byte(2), int64(5))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 15, 15, 15, 15, 15, 15, 15, 15, 7, 7, 7, 7, 7, 7, 7, 7}, byte(2), byte(0), int64(9))
	f.Fuzz(func(t *testing.T, raw []byte, dimByte, mpByte byte, seed int64) {
		dim := int(dimByte)%3 + 1
		n := len(raw) / dim
		if n < 4 {
			return
		}
		if n > 48 {
			n = 48
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = float64(raw[i*dim+j]&0x0f) * 0.5
			}
			pts[i] = p
		}
		const eps = 1.0
		minPts := int(mpByte)%5 + 2

		want, _ := dbscan.Brute(pts, eps, minPts)
		var results [2]*clustering.Result
		for i, exec := range []Exec{ExecSerial, ExecConcurrent} {
			got, _, err := MuDBSCAND(pts, eps, minPts, 4, Options{Seed: seed, Exec: exec})
			if err != nil {
				t.Fatalf("exec=%d: %v", exec, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("exec=%d invalid: %v", exec, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("exec=%d diverges from brute force (%v)", exec, clustering.Equivalent(want, got))
			}
			results[i] = got
		}
		for i := range results[0].Labels {
			if results[0].Labels[i] != results[1].Labels[i] || results[0].Core[i] != results[1].Core[i] {
				t.Fatalf("serial and concurrent differ at point %d", i)
			}
		}
	})
}

package mpi

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCodecRoundTrip checks the wire codec both ways on arbitrary bytes:
// decoding any buffer and re-encoding must reproduce the buffer's aligned
// prefix bit for bit (trailing partial words are dropped), and every decoded
// value must survive a second encode/decode unchanged — including NaN
// payloads, infinities and negative zero, which the float codec preserves
// by moving raw IEEE-754 bits rather than values.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(1))
	f.Add(EncodeFloat64s([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.5}), byte(2))
	f.Add(EncodeInt64s([]int64{-1, 0, math.MaxInt64, math.MinInt64}), byte(7))
	// The byte argument is unused: it keeps the shape of the committed
	// corpus entries.
	f.Fuzz(func(t *testing.T, b []byte, _ byte) {
		ints := DecodeInt64s(b)
		if got, want := EncodeInt64s(ints), b[:8*(len(b)/8)]; !bytes.Equal(got, want) {
			t.Fatalf("int64 re-encode mismatch: %x vs %x", got, want)
		}

		floats := DecodeFloat64s(b)
		if got, want := EncodeFloat64s(floats), b[:8*(len(b)/8)]; !bytes.Equal(got, want) {
			t.Fatalf("float64 re-encode mismatch: %x vs %x", got, want)
		}
		again := DecodeFloat64s(EncodeFloat64s(floats))
		for i := range floats {
			if math.Float64bits(again[i]) != math.Float64bits(floats[i]) {
				t.Fatalf("float64 value %d not bit-stable: %x vs %x",
					i, math.Float64bits(again[i]), math.Float64bits(floats[i]))
			}
		}
	})
}

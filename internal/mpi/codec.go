package mpi

import (
	"encoding/binary"
	"math"
)

// EncodeFloat64s packs vals into a little-endian byte slice.
func EncodeFloat64s(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// DecodeFloat64s unpacks a buffer produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// EncodeInt64s packs vals into a little-endian byte slice.
func EncodeInt64s(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// DecodeInt64s unpacks a buffer produced by EncodeInt64s.
func DecodeInt64s(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// Package nettrans is the decodesafe golden fixture. It is named after the
// real transport package so the analyzer's built-in taint sources — the
// payload result of nettrans.ReadFrame and the Payload field of a Frame
// type — resolve exactly as they do in the module.
package nettrans

import "encoding/binary"

// Frame mimics the transport frame; Payload is built-in wire taint.
type Frame struct {
	Tag     int64
	Payload []byte
}

// ReadFrame mimics the transport's frame reader: the []byte result is a
// built-in taint source.
func ReadFrame() (uint32, int64, []byte, error) { return 0, 0, nil, nil }

// DecodeFloat64s mimics the mpi codec: decoded slices inherit the input's
// truncation, so results of Decode*-named calls on tainted buffers are
// tainted too. The body itself is unannotated and therefore unchecked.
func DecodeFloat64s(b []byte) []float64 { return make([]float64, len(b)/8) }

// Pattern 1: indexing an annotated parameter with no guard at all.
//
//mulint:tainted b
func headByte(b []byte) byte {
	return b[0] // want `index of wire-originating buffer b`
}

// Pattern 2: fixed-width binary read of a ReadFrame payload (built-in
// source, no annotation anywhere).
func frameWord() uint64 {
	_, _, payload, _ := ReadFrame()
	return binary.LittleEndian.Uint64(payload) // want `binary read of wire-originating buffer`
}

// Pattern 3: a guard killed by the cursor advance — after b = b[1:], the
// earlier length test proves nothing.
//
//mulint:tainted b
func advance(b []byte) (byte, byte) {
	if len(b) < 2 {
		return 0, 0
	}
	first := b[0] // guarded: the test above dominates this read
	b = b[1:]
	return first, b[0] // want `index of wire-originating buffer b`
}

// Pattern 4: a guard on only one path — the must-analysis meets the guarded
// and unguarded branches and the guard does not survive.
//
//mulint:tainted b
func oneArm(b []byte, fast bool) byte {
	if fast {
		if len(b) == 0 {
			return 0
		}
	}
	return b[0] // want `index of wire-originating buffer b`
}

// Pattern 5: slicing a Frame payload with non-trivial bounds (built-in
// field taint; b[4:] over-reads a 3-byte frame).
func payloadTail(f *Frame) []byte {
	return f.Payload[4:] // want `slice of wire-originating buffer f.Payload`
}

// Pattern 6: taint propagates through a Decode*-named call — the decoded
// slice is only as long as the wire bytes allowed.
//
//mulint:tainted b
func fourthValue(b []byte) float64 {
	vals := DecodeFloat64s(b)
	return vals[3] // want `index of wire-originating buffer vals`
}

// The allow escape hatch: the read is suppressed with a reasoned audit.
//
//mulint:tainted b
func trustedHead(b []byte) byte {
	return b[0] //mulint:allow decodesafe callers pass fixed-size buffers checked at the frame layer
}

// Pattern 7: nestedRecords (below) without its header length test. The
// count read is unguarded; the reads in the nested loops stay guarded by the
// count test, which mentions len(b).
//
//mulint:tainted b
func nestedRecordsNoHeader(b []byte, dim int) []float64 {
	if dim <= 0 {
		return nil
	}
	n := int(int64(binary.LittleEndian.Uint64(b))) // want `binary read of wire-originating buffer b`
	if n <= 0 || n > (len(b)-8)/(8*(1+dim)) {
		return nil
	}
	out := make([]float64, 0, n*(1+dim))
	for k := 0; k < n; k++ {
		out = append(out, float64(binary.LittleEndian.Uint64(b[8*(1+k):])))
		for j := 0; j < dim; j++ {
			out = append(out, float64(binary.LittleEndian.Uint64(b[8*(1+n+k*dim+j):])))
		}
	}
	return out
}

// ---- Clean idioms below: everything from here on must stay silent. ----

// reader mimics the server's rbuf: the latched-error bounds-checking
// decoder, the canonical guarded pattern.
//
//mulint:tainted buf
type reader struct {
	buf []byte
	err bool
}

func (r *reader) u32() uint32 {
	if r.err || len(r.buf) < 4 {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

// loopDecode is the f64sInto shape: one guard dominates every in-loop read,
// and the cursor advance happens only after the loop.
func (r *reader) loopDecode(n int) []float64 {
	if r.err || len(r.buf) < 8*n {
		r.err = true
		return nil
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(binary.LittleEndian.Uint64(r.buf[8*i:])))
	}
	r.buf = r.buf[8*n:]
	return out
}

// rangeSafe: an index variable ranging over the buffer itself needs no
// guard.
//
//mulint:tainted b
func rangeSafe(b []byte) int {
	sum := 0
	for i := range b {
		sum += int(b[i])
	}
	return sum
}

// trivialSlices cannot over-read: full-slice and zero-low forms are fine,
// and a plain copy or pass-through is not a read at all.
//
//mulint:tainted b
func trivialSlices(b []byte) ([]byte, []float64) {
	alias := b[:]
	return alias[0:], DecodeFloat64s(b)
}

// guardedEitherDirection: the analyzer is deliberately direction-agnostic —
// a length test on the buffer guards both arms (see DESIGN.md §17).
//
//mulint:tainted b
func guardedEitherDirection(b []byte) byte {
	if len(b) >= 1 {
		return b[0]
	}
	return 0
}

// nestedRecords is the record decoder's shape: the row loop sits inside the
// record loop, and the header length test plus the count guard dominate
// every read in both.
//
//mulint:tainted b
func nestedRecords(b []byte, dim int) []float64 {
	if len(b) < 8 || dim <= 0 {
		return nil
	}
	n := int(int64(binary.LittleEndian.Uint64(b)))
	if n <= 0 || n > (len(b)-8)/(8*(1+dim)) {
		return nil
	}
	out := make([]float64, 0, n*(1+dim))
	for k := 0; k < n; k++ {
		out = append(out, float64(binary.LittleEndian.Uint64(b[8*(1+k):])))
		for j := 0; j < dim; j++ {
			out = append(out, float64(binary.LittleEndian.Uint64(b[8*(1+n+k*dim+j):])))
		}
	}
	return out
}

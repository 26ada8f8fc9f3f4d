// Package nettrans carries the mpi runtime's hardened point-to-point frames
// between real OS processes over stdlib net sockets — TCP loopback (or any
// TCP network) and unix domain sockets. It implements mpi.RemoteTransport:
// one process per rank, one unidirectional connection per directed rank pair
// (the dialer writes, the accepter reads), every frame length-prefixed and
// typed by a magic word. The envelope/ack reliability protocol above it is
// unchanged — this package only moves opaque frames, so the clustering built
// on top is byte-identical to the in-process transports.
package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format, little-endian. Every frame starts with the same 16-byte
// header so the reader never needs lookahead:
//
//	[0:4)   magic — which frame kind follows
//	[4:12)  tag (int64): the mpi message tag for data frames, the sender's
//	        rank for hello frames, zero otherwise
//	[12:16) payload length; bytes [16:16+len) are the payload
//
// Frame kinds:
//
//	µHEL — connection handshake: the first frame on every connection,
//	       identifying the dialing rank. No payload.
//	µFRM — one mpi.Message (a hardened envelope or ack). The payload is the
//	       message's Data, delivered verbatim to the remote ingress.
//	µBYE — clean goodbye: the sender's world finished normally and is
//	       closing this connection. EOF after µBYE is a normal exit.
//	µDIE — abort goodbye: the sender's world aborted. The reader reports the
//	       peer down, cascading the abort. EOF with *neither* goodbye means
//	       the peer process vanished (killed, crashed, unplugged) and is
//	       likewise reported down.
//
// The length field is validated against MaxFrame before any allocation: a
// length-lying header (truncated stream, fuzzed input, protocol bug) is
// rejected with an error, never a panic or an unbounded make. Payload bytes
// that fail to arrive surface as io.ErrUnexpectedEOF from the reader.
//
//mulint:wire nettrans-magic frame kinds on the wire — append-only, locked in wire.lock
const (
	helloMagic = 0xB548454C // "µHEL"
	frameMagic = 0xB546524D // "µFRM"
	byeMagic   = 0xB5425945 // "µBYE"
	dieMagic   = 0xB5444945 // "µDIE"
)

// headerLen is part of the frame layout, not a frame kind; it lives outside
// the wire enum block so the magic switch exhaustiveness rule sees exactly
// the four kinds.
//
//mulint:wire nettrans-frame
const headerLen = 16

// DefaultMaxFrame bounds a frame payload when Config.MaxFrame is zero.
// Larger frames are rejected on both sides: refused before allocation by the
// reader, refused before transmission by the writer.
const DefaultMaxFrame = 64 << 20

// HeaderLen is the fixed size of the frame header preceding every payload.
const HeaderLen = headerLen

// ErrBadMagic reports a frame whose magic word is not in the reader's
// accepted set — a foreign protocol, a desynchronized stream, or corruption.
var ErrBadMagic = errors.New("nettrans: unknown frame magic")

var errBadMagic = ErrBadMagic

// putHeader writes one frame header into b, which must hold headerLen bytes.
func putHeader(b []byte, magic uint32, tag int64, n uint32) {
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint64(b[4:], uint64(tag))
	binary.LittleEndian.PutUint32(b[12:], n)
}

// PutHeader fills in the header of frame, whose first HeaderLen bytes were
// left free for it and whose payload is the rest: a sender that builds its
// payload behind the header space writes the frame without copying it.
func PutHeader(frame []byte, magic uint32, tag int64) {
	putHeader(frame, magic, tag, uint32(len(frame)-headerLen))
}

// AppendFrame appends one complete wire frame to dst and returns the
// extended slice. A caller that owns dst and recycles it across writes
// (dst[:0]) produces frames without allocating once the buffer has warmed —
// the daemon's steady-state response path depends on that.
func AppendFrame(dst []byte, magic uint32, tag int64, payload []byte) []byte {
	var hdr [headerLen]byte
	putHeader(hdr[:], magic, tag, uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EncodeFrame builds a complete wire frame in a fresh buffer.
func EncodeFrame(magic uint32, tag int64, payload []byte) []byte {
	b := make([]byte, headerLen+len(payload))
	putHeader(b, magic, tag, uint32(len(payload)))
	copy(b[headerLen:], payload)
	return b
}

// encodeFrame builds a complete wire frame.
func encodeFrame(magic uint32, tag int64, payload []byte) []byte {
	return EncodeFrame(magic, tag, payload)
}

// ReadFrame reads one frame off r, accepting only the listed magic words. It
// returns the frame's magic, tag and payload, or an error: io.EOF for a
// stream that ends cleanly between frames, io.ErrUnexpectedEOF for one that
// ends mid-frame, ErrBadMagic for a frame kind outside accept, and a
// descriptive error for a length prefix exceeding maxFrame — checked before
// allocating, so a lying header cannot balloon memory. No input, however
// truncated or corrupt, panics. The mpi socket transport and the mudbscand
// client protocol share this reader; they differ only in their magic sets.
func ReadFrame(r io.Reader, maxFrame int, accept ...uint32) (magic uint32, tag int64, payload []byte, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	magic = binary.LittleEndian.Uint32(hdr[0:])
	known := false
	for _, m := range accept {
		if magic == m {
			known = true
			break
		}
	}
	if !known {
		return 0, 0, nil, ErrBadMagic
	}
	tag = int64(binary.LittleEndian.Uint64(hdr[4:]))
	n := binary.LittleEndian.Uint32(hdr[12:])
	if uint64(n) > uint64(maxFrame) {
		return 0, 0, nil, fmt.Errorf("nettrans: frame length %d exceeds limit %d", n, maxFrame)
	}
	if n == 0 {
		return magic, tag, nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return magic, tag, payload, nil
}

// readFrame reads one mpi transport frame off r.
func readFrame(r io.Reader, maxFrame int) (magic uint32, tag int64, payload []byte, err error) {
	return ReadFrame(r, maxFrame, helloMagic, frameMagic, byeMagic, dieMagic)
}

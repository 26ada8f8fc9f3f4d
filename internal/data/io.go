package data

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"mudbscan/internal/geom"
)

// binaryMagic identifies the compact binary dataset format.
const binaryMagic = 0x4D750D42 // "Mu\rB"

// WriteCSV writes one point per line, comma-separated, each coordinate in
// the shortest form that reads back to the same float64.
func WriteCSV(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		for j, v := range p {
			// Formatted straight into the writer's buffer, once it has room
			// for the longest coordinate and its comma; a write error is
			// sticky and comes back from Flush.
			if bw.Available() < maxCoordinateLen+1 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			buf := bw.AvailableBuffer()
			if j > 0 {
				buf = append(buf, ',')
			}
			bw.Write(strconv.AppendFloat(buf, v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// maxCoordinateLen is the longest shortest form of a float64, as in
// -2.2250738585072014e-308.
const maxCoordinateLen = 24

// csvChunk is how many coordinates the CSV parser fills before it starts
// the next block. Rows never straddle two blocks, and the blocks are joined
// into the set's one block at the end, so a dataset is a few allocations,
// not one a row.
const csvChunk = 1 << 16

// ReadCSV parses points from comma- or whitespace-separated lines: the rows
// of readCSV's set, as views into its one block.
func ReadCSV(r io.Reader) ([]geom.Point, error) {
	set, err := readCSV(r)
	if err != nil {
		return nil, err
	}
	return set.Points(), nil
}

// isSeparator reports whether c separates CSV fields.
func isSeparator(c byte) bool {
	return c == ',' || c == ' ' || c == '\t' || c == ';'
}

// readCSV parses points from comma- or whitespace-separated lines into one
// row-major set. Empty lines and lines starting with '#' are skipped.
// All rows must share one dimensionality; an input without rows gives an
// empty one-dimensional set.
//
// Lines are parsed as bytes: the separators are ASCII, so splitting bytes is
// splitting runes, and no string or field slice is made per line.
func readCSV(r io.Reader) (*geom.PointSet, error) {
	var full [][]float64 // the blocks filled before block
	var block []float64  // the block being filled
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	dim := -1
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		// A line of L bytes holds at most L/2+1 fields; with room for those
		// the row cannot outgrow its block half way.
		if most := len(text)/2 + 1; cap(block)-len(block) < most {
			if len(block) > 0 {
				full = append(full, block)
			}
			block = make([]float64, 0, max(csvChunk, most))
		}
		start := len(block)
		for i := 0; i < len(text); {
			if isSeparator(text[i]) {
				i++
				continue
			}
			// One pass converts the field. Where the converter stops short
			// of a separator, or does not take the number, the field goes
			// to strconv whole, for strconv's value or error.
			v, n, ok := parseDecimal(text[i:])
			if end := i + n; !ok || end < len(text) && !isSeparator(text[end]) {
				for end < len(text) && !isSeparator(text[end]) {
					end++
				}
				f := text[i:end]
				var err error
				if v, err = strconv.ParseFloat(string(f), 64); err != nil {
					return nil, fmt.Errorf("data: line %d: %v", line, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("data: line %d: non-finite coordinate %q", line, f)
				}
				n = end - i
			}
			block = append(block, v)
			i += n
		}
		width := len(block) - start
		if width == 0 {
			continue
		}
		if dim == -1 {
			dim = width
		} else if width != dim {
			return nil, fmt.Errorf("data: line %d has %d coordinates, want %d", line, width, dim)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dim == -1 {
		return geom.NewPointSet(1, 0), nil
	}
	if len(full) == 0 {
		return geom.AdoptPointSet(dim, block), nil
	}
	full = append(full, block)
	n := 0
	for _, b := range full {
		n += len(b)
	}
	coords := make([]float64, 0, n)
	for _, b := range full {
		coords = append(coords, b...)
	}
	return geom.AdoptPointSet(dim, coords), nil
}

// WriteBinary writes points in the compact binary format:
// magic(u32) dim(u32) n(u64), then n*dim little-endian float64s.
func WriteBinary(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0])
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dim))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(pts)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, p := range pts {
		if len(p) != dim {
			return fmt.Errorf("data: mixed dimensionality %d vs %d", len(p), dim)
		}
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a dataset written by WriteBinary: the rows of
// readBinary's set, as views into its one block.
func ReadBinary(r io.Reader) ([]geom.Point, error) {
	set, err := readBinary(r, -1)
	if err != nil {
		return nil, err
	}
	return set.Points(), nil
}

// readBinary reads a dataset written by WriteBinary, from an input of size
// bytes (−1 when unknown), into one row-major set. The header sizes the
// block in one allocation only when the input is known to hold the body it
// declares: otherwise the block grows as the body arrives, so a hostile
// header cannot trigger a huge allocation before the (truncated) body is
// read.
func readBinary(r io.Reader, size int64) (*geom.PointSet, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("data: short header: %v", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("data: bad magic")
	}
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	n := int(binary.LittleEndian.Uint64(hdr[8:]))
	if dim <= 0 || dim > 1<<16 || n < 0 || n > math.MaxInt/(8*dim) {
		return nil, fmt.Errorf("data: implausible header dim=%d n=%d", dim, n)
	}
	want := min(n*dim, 1<<20)
	if size >= int64(len(hdr))+8*int64(n*dim) {
		want = n * dim
	}
	coords := make([]float64, 0, want)
	flat := make([]byte, 8*dim)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, flat); err != nil {
			return nil, fmt.Errorf("data: truncated at point %d: %v", i, err)
		}
		for j := 0; j < dim; j++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(flat[8*j:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("data: point %d has non-finite coordinate", i)
			}
			coords = append(coords, v)
		}
	}
	return geom.AdoptPointSet(dim, coords), nil
}

// ReadFile reads the dataset at path into one row-major set: the binary
// format when the name ends in ".bin", CSV otherwise. Path "-" reads CSV
// from stdin.
func ReadFile(path string, stdin io.Reader) (*geom.PointSet, error) {
	if path == "-" {
		return readCSV(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !strings.HasSuffix(path, ".bin") {
		return readCSV(f)
	}
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	return readBinary(f, size)
}

// WriteLabels writes one cluster label per line to the file at path, or to
// stdout when path is "-". A failure to close the file is an error too: the
// labels may not all have reached it.
func WriteLabels(path string, stdout io.Writer, labels []int) error {
	if path == "-" {
		return writeLabels(stdout, labels)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(writeLabels(f, labels), f.Close())
}

func writeLabels(w io.Writer, labels []int) error {
	bw := bufio.NewWriter(w)
	for _, l := range labels {
		// Formatted straight into the writer's buffer, once it has room for
		// the longest label and its newline; a write error is sticky and
		// comes back from Flush.
		if bw.Available() < maxLabelLen+1 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		bw.Write(append(strconv.AppendInt(bw.AvailableBuffer(), int64(l), 10), '\n'))
	}
	return bw.Flush()
}

// maxLabelLen is the longest label, math.MinInt64's 20 bytes.
const maxLabelLen = 20

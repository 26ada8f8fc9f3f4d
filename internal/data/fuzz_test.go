package data

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"mudbscan/internal/geom"
)

// readCSVReference is the line-at-a-time reader ReadCSV replaced: a string
// and a field slice per line, a slice per row. ReadCSV must return the same
// points bit for bit and the same errors with the same line numbers.
func readCSVReference(r io.Reader) ([]geom.Point, error) {
	var pts []geom.Point
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	dim := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == ';'
		})
		p := make(geom.Point, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %v", line, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("data: line %d: non-finite coordinate %q", line, f)
			}
			p = append(p, v)
		}
		if len(p) == 0 {
			continue
		}
		if dim == -1 {
			dim = len(p)
		} else if len(p) != dim {
			return nil, fmt.Errorf("data: line %d has %d coordinates, want %d", line, len(p), dim)
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

// sameAsReference reads in with both readers and reports any difference in
// the points (compared as bits: −0 is not 0) or in the error text.
func sameAsReference(in []byte) error {
	got, gotErr := ReadCSV(bytes.NewReader(in))
	want, wantErr := readCSVReference(bytes.NewReader(in))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
			return fmt.Errorf("row %d: len %d cap %d, reference len %d", i, len(got[i]), cap(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("row %d coordinate %d: %v, reference %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func TestReadCSVMatchesReference(t *testing.T) {
	long := bytes.Repeat([]byte("1.5,"), 1<<18) // a 1 MiB line
	for name, in := range map[string][]byte{
		"CRLF":                      []byte("1,2\r\n3,4\r\n"),
		"trailing separators":       []byte("1,2,\n3;4;;\n5 6 \t\n"),
		"leading separators":        []byte(",1,2\n  3 4\n"),
		"# after blanks":            []byte("\n\n  # not data\n1 2\n\t#3 4\n"),
		"mixed separators":          []byte("1, 2;\t3 ,;4\n5\t6 7;8\n"),
		"separators only":           []byte(",,;\n1\n \t \n2\n"),
		"no final newline":          []byte("1 2\n3 4"),
		"signs, exponents, hex":     []byte("-0,+1e-3,0x1p-2\n1_0,2,3\n"),
		"bad float, line 3":         []byte("1,2\n\n3,x\n"),
		"bad float past the width":  []byte("1,2\n3,4,y\n"),
		"wider row":                 []byte("1,2\n3,4,5\n"),
		"narrower row":              []byte("1,2\n# c\n3\n"),
		"nan":                       []byte("1,2\nNaN,3\n"),
		"overflow to Inf":           []byte("1e999\n"),
		"non-ASCII space in field":  []byte("1\u00a02\n"),
		"non-ASCII space at an end": []byte("\u00a01 2\u2003\n"),
		"invalid UTF-8":             []byte("1 \xff2\n"),
		"1 MiB line":                long[:1<<20-1],
		"line over 1 MiB":           append(long, '1'),
		"empty":                     nil,
	} {
		if err := sameAsReference(in); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if pts, err := ReadCSV(bytes.NewReader(long[:1<<20-1])); err != nil || len(pts) != 1 || len(pts[0]) != 1<<18 {
		t.Errorf("1 MiB line: %d rows, err %v", len(pts), err)
	}
}

// TestReadCSVAllocs: rows are carved from shared blocks, so reading costs a
// few allocations per block of rows (the blocks, and the growth of the row
// slice), not three per line.
func TestReadCSVAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Blobs(20000, 3, 4, 0.5, 0.1, 1)); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() {
		if pts, err := ReadCSV(bytes.NewReader(in)); err != nil || len(pts) != 20000 {
			t.Fatalf("%d rows, err %v", len(pts), err)
		}
	})
	if allocs > 60 {
		t.Errorf("ReadCSV of 20000 rows made %.0f allocations; want a few dozen", allocs)
	}
}

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6\n"))
	f.Add([]byte("# comment\n\n1 2\n3\t4\n"))
	f.Add([]byte("1;2\n"))
	f.Add([]byte("nan,1\n"))
	f.Add([]byte("1e999\n"))
	f.Add([]byte(""))
	f.Add([]byte("1,2\r\n,3;4 \t\n#5\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := sameAsReference(in); err != nil {
			t.Fatal(err)
		}
		pts, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Parsed datasets must be rectangular, and must survive a
		// write/read round trip bit-exactly.
		if len(pts) == 0 {
			return
		}
		dim := len(pts[0])
		for i, p := range pts {
			if len(p) != dim {
				t.Fatalf("row %d has dim %d, want %d", i, len(p), dim)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, pts); err != nil {
			t.Fatalf("WriteCSV of parsed data: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("round trip %d -> %d rows", len(pts), len(again))
		}
		for i := range pts {
			if !pts[i].Equal(again[i]) {
				t.Fatalf("row %d changed in round trip", i)
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var good bytes.Buffer
	if err := WriteBinary(&good, Blobs(5, 3, 1, 0.5, 0, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x0D, 0x75, 0x4D})
	f.Fuzz(func(t *testing.T, in []byte) {
		// Must never panic or over-allocate on corrupt input; valid parses
		// must round trip.
		pts, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if len(pts) > 0 {
			if err := WriteBinary(&buf, pts); err != nil {
				t.Fatalf("WriteBinary of parsed data: %v", err)
			}
			again, err := ReadBinary(&buf)
			if err != nil || len(again) != len(pts) {
				t.Fatalf("round trip: %v %d", err, len(again))
			}
		}
	})
}

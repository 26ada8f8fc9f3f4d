package data

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"mudbscan/internal/geom"
)

// TestReadFileWriteLabels: ReadFile picks the binary format by the ".bin"
// suffix and CSV otherwise, "-" reads CSV from stdin, and WriteLabels writes
// one label per line to a file or, for "-", to stdout.
func TestReadFileWriteLabels(t *testing.T) {
	dir := t.TempDir()
	pts := []geom.Point{{0.5, -1}, {2, 3.25}, {1e-9, 7}}
	var csv, bin bytes.Buffer
	if err := WriteCSV(&csv, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, pts); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		body []byte
	}{{"p.csv", csv.Bytes()}, {"p.bin", bin.Bytes()}, {"p.txt", csv.Bytes()}} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.body, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, nil)
		if err != nil || !reflect.DeepEqual(got.Points(), pts) {
			t.Fatalf("%s: %v, %v", f.name, got, err)
		}
	}
	if got, err := ReadFile("-", bytes.NewReader(csv.Bytes())); err != nil || !reflect.DeepEqual(got.Points(), pts) {
		t.Fatalf("stdin: %v, %v", got, err)
	}
	if _, err := ReadFile(filepath.Join(dir, "none.csv"), nil); err == nil {
		t.Fatal("missing file read without error")
	}
	// A CSV file named .bin is read as binary, and refused.
	if err := os.WriteFile(filepath.Join(dir, "csv.bin"), csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(filepath.Join(dir, "csv.bin"), nil); err == nil {
		t.Fatal("CSV body under a .bin name read without error")
	}

	labels := []int{0, -1, 12, 0}
	const want = "0\n-1\n12\n0\n"
	path := filepath.Join(dir, "labels.txt")
	if err := WriteLabels(path, nil, labels); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != want {
		t.Fatalf("file: %q, %v", b, err)
	}
	var stdout bytes.Buffer
	if err := WriteLabels("-", &stdout, labels); err != nil || stdout.String() != want {
		t.Fatalf("stdout: %q, %v", stdout.String(), err)
	}
	if err := WriteLabels(filepath.Join(dir, "no", "such", "dir"), nil, labels); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestBlockReadFileAllocBudget: ReadFile parses into one block. CSV fills
// fixed-size blocks and joins them once, so it allocates at most two copies
// of the coordinates plus 1 MiB; the binary format knows its size from the
// file and allocates one copy plus 64 KiB.
func TestBlockReadFileAllocBudget(t *testing.T) {
	const n, dim = 20000, 5
	pts := HouseholdLike(n, dim, 1)
	dir := t.TempDir()
	for _, f := range []struct {
		name   string
		write  func(io.Writer, []geom.Point) error
		budget uint64
	}{
		{"p.csv", WriteCSV, 2*8*n*dim + 1<<20},
		{"p.bin", WriteBinary, 8*n*dim + 64<<10},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf, pts); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := ReadFile(path, nil)
		runtime.ReadMemStats(&after)
		if err != nil || set.Len() != n || set.Dim() != dim {
			t.Fatalf("%s: %v, %v", f.name, set, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated, budget %d", f.name, got, f.budget)
		if got > f.budget {
			t.Errorf("%s: ReadFile allocated %d bytes, budget %d", f.name, got, f.budget)
		}
	}
}

// writeCSVReference is the writer WriteCSV replaced: a string per
// coordinate through FormatFloat.
func writeCSVReference(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		for j, v := range p {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// TestWriteCSVMatchesReference: WriteCSV writes the old writer's bytes on
// every generator, the extremes of the float64 range and a row wider than
// the writer's buffer, and allocates only the writer.
func TestWriteCSVMatchesReference(t *testing.T) {
	sets := map[string][]geom.Point{
		"blobs":     Blobs(3000, 3, 4, 0.5, 0.1, 1),
		"galaxy":    GalaxyLike(3000, 3, 5),
		"geodrift":  GeoTraceDrift(3000, 1),
		"household": HouseholdLike(3000, 5, 1),
		"bio":       BioLike(500, 14, 1),
		"uniform":   Uniform(3000, 2, 10, 1),
		"extremes": {
			{-2.2250738585072014e-308, math.SmallestNonzeroFloat64, -math.MaxFloat64},
			{math.Copysign(0, -1), 0, 1e21},
			{-1.2345678901234567e-300, 1e-7, 123456789012345680},
		},
		"wide": {make(geom.Point, 1000)},
	}
	for i := range sets["wide"][0] {
		sets["wide"][0][i] = -1.2345678901234567e-300 * float64(i+1)
	}
	for name, pts := range sets {
		var got, want bytes.Buffer
		if err := WriteCSV(&got, pts); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVReference(&want, pts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteCSV wrote %d bytes differing from the reference's %d", name, got.Len(), want.Len())
		}
	}
	pts := sets["household"]
	allocs := testing.AllocsPerRun(5, func() {
		if err := WriteCSV(io.Discard, pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("WriteCSV of %d rows made %.0f allocations; want only the writer's", len(pts), allocs)
	}
}

// TestWriteLabelsAllocs: writeLabels formats every label into the writer's
// buffer, making room before a label that might not fit, so it allocates the
// writer and its buffer and nothing per label, and writes what one
// strconv.Itoa per line writes, the int64 extremes included.
func TestWriteLabelsAllocs(t *testing.T) {
	labels := make([]int, 100_000)
	for i := range labels {
		labels[i] = i%1000 - 1
	}
	labels[7], labels[4093] = math.MinInt64, math.MaxInt64
	var got, want bytes.Buffer
	if err := writeLabels(&got, labels); err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		want.WriteString(strconv.Itoa(l) + "\n")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("writeLabels wrote %d bytes differing from one Itoa per line's %d", got.Len(), want.Len())
	}
	few := testing.AllocsPerRun(5, func() {
		if err := writeLabels(io.Discard, labels[:100]); err != nil {
			t.Fatal(err)
		}
	})
	many := testing.AllocsPerRun(5, func() {
		if err := writeLabels(io.Discard, labels); err != nil {
			t.Fatal(err)
		}
	})
	if many > 2 || many != few {
		t.Errorf("writeLabels made %.0f allocations for %d labels and %.0f for 100; want only the writer's", many, len(labels), few)
	}
}

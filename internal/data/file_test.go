package data

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

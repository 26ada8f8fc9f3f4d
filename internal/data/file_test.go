package data

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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
		if err != nil || !reflect.DeepEqual(got, pts) {
			t.Fatalf("%s: %v, %v", f.name, got, err)
		}
	}
	if got, err := ReadFile("-", bytes.NewReader(csv.Bytes())); err != nil || !reflect.DeepEqual(got, pts) {
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

// Command datagen generates the synthetic datasets this repository uses as
// analogues of the paper's evaluation corpora.
//
// Usage:
//
//	datagen -kind galaxy -n 100000 -dim 3 -seed 1 -format csv -out pts.csv
//
// Kinds: galaxy (Millennium-Run-like), road (3D road network-like),
// household (UCI household power-like), bio (KDD bio-like high dimension),
// blobs (Gaussian mixture + noise), uniform.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "blobs", "dataset kind: galaxy, road, household, bio, blobs, uniform")
		n      = fs.Int("n", 10000, "number of points")
		dim    = fs.Int("dim", 3, "dimensionality (road is always 3)")
		seed   = fs.Int64("seed", 1, "generator seed")
		format = fs.String("format", "csv", "output format: csv or bin")
		out    = fs.String("out", "-", "output file (- = stdout)")
		k      = fs.Int("k", 4, "blob count (kind=blobs)")
		spread = fs.Float64("spread", 0.3, "blob spread (kind=blobs)")
		noise  = fs.Float64("noise", 0.1, "noise fraction (kind=blobs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *dim <= 0 {
		return fmt.Errorf("-n and -dim must be positive")
	}

	var pts []geom.Point
	switch *kind {
	case "galaxy":
		pts = data.GalaxyLike(*n, *dim, *seed)
	case "road":
		pts = data.RoadNetworkLike(*n, *seed)
	case "household":
		pts = data.HouseholdLike(*n, *dim, *seed)
	case "bio":
		pts = data.BioLike(*n, *dim, *seed)
	case "blobs":
		pts = data.Blobs(*n, *dim, *k, *spread, *noise, *seed)
	case "uniform":
		pts = data.Uniform(*n, *dim, 100, *seed)
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}

	if *out == "-" {
		return write(stdout, *format, pts)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// A failed Close is an error too: the points may not all have reached
	// the file.
	return errors.Join(write(f, *format, pts), f.Close())
}

// write encodes pts to w in the named format.
func write(w io.Writer, format string, pts []geom.Point) error {
	switch format {
	case "csv":
		return data.WriteCSV(w, pts)
	case "bin":
		return data.WriteBinary(w, pts)
	default:
		return fmt.Errorf("unknown -format %q (want csv or bin)", format)
	}
}

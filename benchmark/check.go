package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"

	"mudbscan/internal/clustering"
	"mudbscan/internal/geom"
)

// Output checks. All of them run outside every timed region.

// checkResult requires got to be the same exact DBSCAN clustering as ref:
// identical core flags, the same partition of the core points, the same
// cluster count and the same noise set.
func checkResult(ref, got *clustering.Result) error {
	if got == nil {
		return fmt.Errorf("%w: no result", errMismatch)
	}
	if len(got.Labels) != len(ref.Labels) || len(got.Core) != len(ref.Core) {
		return fmt.Errorf("%w: %d labels and %d core flags for %d points", errMismatch, len(got.Labels), len(got.Core), len(ref.Labels))
	}
	if err := clustering.Equivalent(ref, got); err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	return nil
}

// checkLabels checks a labels-only output (the CLI's labels file): the core
// flags are taken from ref, so the noise set and the core partition are still
// compared.
func checkLabels(ref *clustering.Result, labels []int) error {
	numClusters := 0
	for _, l := range labels {
		numClusters = max(numClusters, l+1)
	}
	return checkResult(ref, &clustering.Result{Labels: labels, Core: ref.Core, NumClusters: numClusters})
}

// readLabels parses the CLI's output: one integer label per line.
func readLabels(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var labels []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		l, err := strconv.Atoi(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("labels file %s: %w", path, err)
		}
		labels = append(labels, l)
	}
	return labels, sc.Err()
}

// checkPin compares a run on the default input with the pinned facts.
func checkPin(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%w: %s = %d, pinned %d", errMismatch, what, got, want)
	}
	return nil
}

// checkNeighbors brute-scans the dataset for the points strictly within eps
// of centre and requires got to be exactly those ids, ascending.
func checkNeighbors(pts []geom.Point, eps float64, centre geom.Point, got []int) error {
	kern := geom.KernelFor(len(centre))
	k := 0
	for i, p := range pts {
		if kern(p, centre) >= eps*eps {
			continue
		}
		if k >= len(got) || got[k] != i {
			return fmt.Errorf("%w: ε-query answer misses or misplaces point %d", errMismatch, i)
		}
		k++
	}
	if k != len(got) {
		return fmt.Errorf("%w: ε-query answer has %d extra ids", errMismatch, len(got)-k)
	}
	return nil
}

// checkNeighborSet is checkNeighbors for an index that answers in tree order.
func checkNeighborSet(pts []geom.Point, eps float64, centre geom.Point, got []int) error {
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	return checkNeighbors(pts, eps, centre, sorted)
}

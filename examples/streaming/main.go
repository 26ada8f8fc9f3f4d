// Streaming: monitor a drifting sensor stream with the streaming tier — the
// data-stream adaptation the paper names as future work (§VII). Two sensor
// populations emit readings; mid-stream one population shuts down and a new
// one appears elsewhere. With a damped window the clusterer forgets the dead
// population while a landmark window remembers everything — the example
// shows both, plus per-snapshot anomaly checks.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"mudbscan"
)

func main() {
	if err := run(os.Stdout, 5000, 20000); err != nil {
		log.Fatal(err)
	}
}

// run drives the two stream clusterers with phase1 readings from the first
// sensor pair and phase2 readings after the population change.
func run(w io.Writer, phase1, phase2 int) error {
	damped, err := mudbscan.NewStreamClusterer(2, 0.5, 10, mudbscan.StreamOptions{Lambda: 0.005})
	if err != nil {
		return err
	}
	landmark, err := mudbscan.NewStreamClusterer(2, 0.5, 10, mudbscan.StreamOptions{})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(7))
	// emit interleaves readings from the live sensors point by point, the
	// way concurrent sensors actually arrive.
	emit := func(n int, sensors ...[2]float64) error {
		for i := 0; i < n; i++ {
			s := sensors[i%len(sensors)]
			p := []float64{s[0] + rng.NormFloat64()*0.3, s[1] + rng.NormFloat64()*0.3}
			if err := damped.Add(p); err != nil {
				return err
			}
			if err := landmark.Add(p); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: sensors A (0,0) and B (20,20) both alive.
	if err := emit(phase1, [2]float64{0, 0}, [2]float64{20, 20}); err != nil {
		return err
	}
	s := damped.Snapshot()
	fmt.Fprintf(w, "phase 1: damped window sees %d sensor groups in its %d live points\n",
		s.NumClusters, s.Len())

	// Phase 2: sensor A dies; sensor C (40, -10) comes online.
	if err := emit(phase2, [2]float64{20, 20}, [2]float64{40, -10}); err != nil {
		return err
	}

	ds := damped.Snapshot()
	ls := landmark.Snapshot()
	st := damped.Stats()
	fmt.Fprintf(w, "phase 2: damped window sees %d groups in its %d live points (evicted %d stale points)\n",
		ds.NumClusters, st.Retained, st.EvictedPoints)
	fmt.Fprintf(w, "phase 2: landmark window still sees %d groups\n", ls.NumClusters)

	probes := []struct {
		name string
		p    []float64
	}{
		{"dead sensor A region", []float64{0, 0}},
		{"sensor B region", []float64{20, 20}},
		{"new sensor C region", []float64{40, -10}},
		{"empty space", []float64{-15, 30}},
	}
	fmt.Fprintln(w, "probing the damped snapshot:")
	for _, probe := range probes {
		label := ds.Assign(probe.p)
		verdict := fmt.Sprintf("group %d", label)
		if label == -1 {
			verdict = "anomalous (no active group)"
		}
		fmt.Fprintf(w, "  %-22s -> %s\n", probe.name, verdict)
	}
	return nil
}

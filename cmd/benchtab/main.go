// Command benchtab regenerates the paper's evaluation tables and figures on
// scaled-down dataset analogues.
//
// Usage:
//
//	benchtab -exp table2            # one experiment
//	benchtab -exp all -scale 0.25   # everything, quarter-size datasets
//	benchtab -list                  # show available experiments
//
// Experiments: table1..table8, fig5..fig7, shared, wallclock, ablations,
// chaos, all. The tables and figures use the serial rank simulation
// (isolation timing, the paper's methodology); wallclock additionally runs
// the concurrent driver and reports real end-to-end wall-clock next to the
// simulated totals; chaos reports the envelope protocol's fault-absorption
// counters under deterministic fault plans next to a clean run. See
// DESIGN.md §4 for the mapping to the paper (§11 for the fault model), and
// EXPERIMENTS.md for recorded results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mudbscan/internal/bench"
	"mudbscan/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment to run (see -list), or \"all\"")
		scale      = fs.Float64("scale", 1.0, "dataset size multiplier")
		ranks      = fs.Int("ranks", 32, "simulated rank count for distributed experiments")
		list       = fs.Bool("list", false, "list available experiments")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Description)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (or -list)")
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	runErr := bench.RunExperiment(*exp, bench.Config{
		Out:   stdout,
		Scale: *scale,
		Ranks: *ranks,
	})
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

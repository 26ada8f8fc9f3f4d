package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named driver that regenerates one of the paper's tables
// or figures.
type Experiment struct {
	Name        string
	Description string
	Run         func(Config) error
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "empirical complexity scaling (Table I)", Table1},
		{"table2", "sequential run-time comparison (Table II)", Table2},
		{"table3", "μDBSCAN step-time split (Table III)", Table3},
		{"table4", "peak memory of sequential algorithms (Table IV)", Table4},
		{"table5", "distributed run-time comparison (Table V)", Table5},
		{"table6", "μDBSCAN-D with increasing cores (Table VI)", Table6},
		{"table7", "μDBSCAN-D phase split (Table VII)", Table7},
		{"table8", "per-step speedup vs sequential (Table VIII)", Table8},
		{"fig5", "run time vs eps (Figure 5)", Fig5},
		{"fig6", "run time vs dimensionality (Figure 6)", Fig6},
		{"fig7", "speedup vs ranks (Figure 7)", Fig7},
		{"shared", "shared-memory multi-core phase split across worker counts", SharedMemory},
		{"wallclock", "μDBSCAN-D simulated vs real wall-clock across rank counts", Wallclock},
		{"ablations", "design-choice ablations (DESIGN.md §5)", Ablations},
		{"chaos", "fault absorption of the envelope protocol at 8 ranks (DESIGN.md §11)", Chaos},
		{"daemon", "clustering-as-a-service cold/cached jobs and ε-query serving (DESIGN.md §14)", Daemon},
		{"engines", "cross-engine head-to-head: brute vs μR-tree vs grid cell, with the auto-selector's pick (DESIGN.md §15)", Engines},
		{"scenarios", "every engine on every scenario-corpus workload, with inline exactness checks (DESIGN.md §16)", Scenarios},
	}
}

// RunExperiment dispatches one experiment by name ("all" runs everything).
func RunExperiment(name string, cfg Config) error {
	if name == "all" {
		for _, e := range Experiments() {
			fmt.Fprintf(cfg.Out, "==== %s: %s ====\n", e.Name, e.Description)
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(cfg.Out)
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return e.Run(cfg)
		}
	}
	names := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return fmt.Errorf("bench: unknown experiment %q (have %v and \"all\")", name, names)
}

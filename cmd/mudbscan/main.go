// Command mudbscan clusters a dataset file with μDBSCAN and writes one
// cluster label per input point.
//
// Usage:
//
//	mudbscan -eps 0.5 -minpts 5 [-mode seq|shared|cell|auto|dist|stream]
//	         [-ranks 8] [-dist-serial] [-chaos-seed 3] [-workers 4]
//	         [-lambda 0.01] [-prune-below 0.1]
//	         [-net tcp|unix|launch] [-rank N] [-peers a,b,...]
//	         [-in points.csv] [-out labels.txt] [-stats]
//
// The input is CSV (one point per line; comma, space, tab or semicolon
// separated) or the compact binary format produced by datagen -format bin
// (detected by extension .bin). "-" reads stdin. CSV numbers parse
// bit-identically to Go's strconv.ParseFloat, with its grammar and its
// errors; a non-finite coordinate is refused. Labels are written one per
// line: a cluster id in [0, #clusters) or -1 for noise.
//
// -stats prints to stderr. Its first line gives read= (the input parse) and,
// on the run's line, time= (the run after it). -mode dist adds the
// merge-phase bytes (mergeBytes=) and a phases: line with the slowest
// rank's partition, halo, four steps and merge.
//
// -mode takes the names of mudbscan.Engine. -mode seq is the sequential
// μR-tree engine, -mode cell the grid cell engine (typically faster at low
// dimensionality; -workers bounds its parallelism), and -mode auto profiles
// the dataset and picks between them (-stats reports which engine ran).
// -mode shared is the seq engine on -workers goroutines (0 = all cores).
// Every mode writes the same labels: each engine is exact and gives a border
// point the cluster of its smallest-id core neighbor, as brute-force DBSCAN
// does.
//
// -mode stream feeds the rows through the streaming tier in order and labels
// them from the final exact snapshot — identical to -mode auto by default
// (landmark window). With -lambda > 0 the window is damped: rows that expired
// before the end of the stream come out as noise. -workers is ignored.
//
// With -net, -mode dist leaves the single-process simulation: each rank is a
// separate OS process and the ranks exchange messages over real sockets.
// `-net tcp -rank N -peers host:p0,host:p1,...` runs one rank of the world
// (start one such process per peer-list entry; rank 0 writes the labels);
// `-net launch` forks all -ranks rank processes on loopback itself.
//
// Exit status: 0 on success, 1 on runtime errors, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mudbscan"
	"mudbscan/internal/data"
	"mudbscan/internal/prof"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr), os.Stderr))
}

// usageError marks an error caused by the invocation rather than the run.
// printed records whether the flag package already reported it (its parse
// errors print the message and usage before returning), so main reports
// every usage error exactly once — the historical ContinueOnError behaviour
// printed parse errors twice.
type usageError struct {
	err     error
	printed bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// usagef builds a not-yet-printed usage error.
func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// exitCode maps run's error to the process exit status: 0 for success and
// -h/-help, 2 for usage errors (reported exactly once), 1 for everything
// else.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue *usageError
	if errors.As(err, &ue) {
		if !ue.printed {
			fmt.Fprintln(stderr, "mudbscan:", ue.err)
		}
		return 2
	}
	fmt.Fprintln(stderr, "mudbscan:", err)
	return 1
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mudbscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		eps     = fs.Float64("eps", 0, "DBSCAN ε radius (required, > 0)")
		minPts  = fs.Int("minpts", 5, "DBSCAN MinPts density threshold")
		mode    = fs.String("mode", "seq", "engine: seq, shared, cell, auto, dist or stream")
		lambda  = fs.Float64("lambda", 0, "decay rate for -mode stream (0 = landmark window, nothing expires)")
		prune   = fs.Float64("prune-below", 0, "expiry weight threshold for -mode stream -lambda (0 = default 0.1)")
		ranks   = fs.Int("ranks", 8, "simulated ranks for -mode dist (power of two)")
		distSer = fs.Bool("dist-serial", false, "run -mode dist ranks one at a time (isolation timing) instead of concurrently")
		chSeed  = fs.Int64("chaos-seed", 0, "inject deterministic network faults into -mode dist from this seed (0 = off)")
		workers = fs.Int("workers", 0, "goroutines for -mode shared, cell and auto (0 = GOMAXPROCS)")
		inPath  = fs.String("in", "-", "input dataset (CSV, numbers as strconv.ParseFloat reads them; or .bin binary; - = stdin)")
		outPath = fs.String("out", "-", "output labels file (- = stdout)")
		stats   = fs.Bool("stats", false, "print run statistics to stderr")
		suggest = fs.Bool("suggest-eps", false, "print a suggested eps from the k-distance elbow and exit")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
		netMode = fs.String("net", "", "run -mode dist over real sockets: tcp, unix (one rank per process) or launch (fork all ranks)")
		rank    = fs.Int("rank", -1, "this process's rank for -net tcp|unix")
		peers   = fs.String("peers", "", "comma-separated rank addresses for -net tcp|unix (entry i = rank i's listen address)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		// ContinueOnError already printed the message and usage to stderr.
		return &usageError{err: err, printed: true}
	}
	if *eps <= 0 && !*suggest {
		return usagef("-eps is required and must be positive")
	}
	engine, err := mudbscan.ParseEngine(*mode)
	if err != nil {
		return usagef("-mode: %v", err)
	}
	netCfg, err := parseNetFlags(fs, *netMode, *rank, *peers, *mode, *ranks, *distSer, *chSeed)
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	readStart := time.Now()
	set, err := data.ReadFile(*inPath, stdin)
	if err != nil {
		return err
	}
	read := time.Since(readStart)
	// The set is the only copy of the input: the seq, shared, cell, auto
	// and stream engines run on it in place. Row views are made only for
	// the calls that take rows.
	rows := func() [][]float64 {
		rows := make([][]float64, set.Len())
		for i := range rows {
			rows[i] = set.Row(i)
		}
		return rows
	}
	if *suggest {
		e, err := mudbscan.SuggestEps(rows(), *minPts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%g\n", e)
		return nil
	}

	if engine == mudbscan.EngineAuto && *stats {
		fmt.Fprintf(stderr, "engine=%s read=%v\n", mudbscan.ChooseEngine(rows(), *eps, *minPts), read)
	}
	start := time.Now()
	var result *mudbscan.Result
	if engine == mudbscan.EngineDist {
		if netCfg != nil {
			if netCfg.launch {
				return runLaunch(*ranks, set.Points(), *eps, *minPts, *stats, *outPath, stdout, stderr)
			}
			return runNetRank(netCfg, set.Points(), *eps, *minPts, *stats, *outPath, stdout, stderr, read, start)
		}
		var distOpts []mudbscan.Option
		if *distSer {
			distOpts = append(distOpts, mudbscan.WithSerialSimulation())
		}
		if *chSeed != 0 {
			distOpts = append(distOpts, mudbscan.WithFaultInjection(*chSeed))
		}
		var st *mudbscan.DistStats
		result, st, err = mudbscan.ClusterDistributed(rows(), *eps, *minPts, *ranks, distOpts...)
		if err == nil && *stats {
			printDistStats(stderr, set.Len(), "", st, read, time.Since(start))
		}
	} else {
		var st *mudbscan.SeqStats
		result, st, err = mudbscan.ClusterFlat(set.Data(), set.Dim(), *eps, *minPts, mudbscan.WithEngine(engine),
			mudbscan.WithWorkers(*workers), mudbscan.WithStreamWindow(*lambda, *prune))
		if err == nil && *stats {
			printRunStats(stderr, set.Len(), engine, st, *lambda, read, time.Since(start))
		}
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(stderr, "clusters=%d cores=%d noise=%d\n",
			result.NumClusters, result.NumCorePoints(), result.NumNoise())
	}
	return data.WriteLabels(*outPath, stdout, result.Labels)
}

// printRunStats writes the -stats lines of a run on one host. The first
// line gives the input parse (read) and the run after it (time). A stream
// run reports its window. Every other engine reports the counters (m counts
// cells under the cell engine, micro-clusters otherwise, and deferred the
// points step 1's scan deferred, 0 under the cell engine): point-to-point
// distance computations next to the centre tests of steps 3 and 4, then how
// many of the queries step 3 had to run a second time in full; and the step
// split (the cell engine's build, adjacency, mark+connect and assign phases
// fill its four slots). The shared engine adds the worker count.
func printRunStats(w io.Writer, n int, engine mudbscan.Engine, st *mudbscan.SeqStats, lambda float64, read, elapsed time.Duration) {
	if engine == mudbscan.EngineStream {
		window := "landmark"
		if lambda > 0 {
			window = fmt.Sprintf("damped(lambda=%g)", lambda)
		}
		fmt.Fprintf(w, "n=%d window=%s read=%v time=%v\n", n, window, read, elapsed)
		return
	}
	workers := ""
	if engine == mudbscan.EngineShared {
		workers = fmt.Sprintf(" workers=%d", st.Workers)
	}
	fmt.Fprintf(w, "n=%d m=%d deferred=%d%s queries=%d saved=%d (%.2f%%) distcalcs=%d centercalcs=%d requeries=%d read=%v time=%v\n",
		n, st.NumMCs, st.Deferred, workers, st.Queries, st.QueriesSaved, st.QuerySavedPct(), st.DistCalcs, st.CenterCalcs, st.Requeries, read, elapsed)
	fmt.Fprintf(w, "steps: tree=%v reach=%v cluster=%v post=%v\n",
		st.Steps.TreeConstruction, st.Steps.FindingReachable,
		st.Steps.Clustering, st.Steps.PostProcessing)
}

// printDistStats writes the -mode dist -stats lines of a run over n points,
// in process or, with net naming the network, as rank 0 of a -net world:
// the counters with the input parse (read) and the run after it (time),
// then each phase's time on its slowest rank (partition and halo exchange,
// the four steps, the merge), then the envelope protocol's counters, where
// a clean network shows only envBytes.
func printDistStats(w io.Writer, n int, net string, st *mudbscan.DistStats, read, elapsed time.Duration) {
	if net != "" {
		net = " net=" + net
	}
	fmt.Fprintf(w, "n=%d ranks=%d%s m=%d halo=%d mergeBytes=%d commBytes=%d wallclock=%v simulated=%v read=%v time=%v\n",
		n, st.Ranks, net, st.NumMCs, st.HaloPoints, st.MergeBytes, st.Comm.TotalBytes(),
		st.WallClock, st.Phases.Total(), read, elapsed)
	ph := st.Phases
	fmt.Fprintf(w, "phases: partition=%v halo=%v tree=%v reach=%v cluster=%v post=%v merge=%v\n",
		ph.Partition, ph.HaloExchange, ph.TreeConstruction, ph.FindingReachable,
		ph.Clustering, ph.PostProcessing, ph.Merge)
	fmt.Fprintf(w, "reliability: envBytes=%d retx=%d timeouts=%d corruptDropped=%d dupDropped=%d\n",
		st.Comm.EnvelopeBytes, st.Comm.Retransmits, st.Comm.Timeouts,
		st.Comm.CorruptDropped, st.Comm.DupDropped)
}

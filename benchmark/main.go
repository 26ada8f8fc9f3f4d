// Command benchmark is the repository's benchmark: four workloads that each
// put sequential μDBSCAN's time in a different layer, an untraced pass that
// measures what a user of the library, the CLI and the daemon sees, and a
// traced pass that calls each layer's public functions in turn under
// harness-side spans. README.md has the tables and the reasons.
//
// All load comes from one process, one client connection and one engine
// goroutine; the multi-worker engines are sampled only as deadline-guarded
// per-layer metrics because they can deadlock (README.md, "Finding").
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// repoRoot is where the module under test lives, relative to the benchmark's
// own directory, which must be the working directory (run.sh sees to that).
// Everything a run leaves on disk goes under buildDir, inside the checkout.
const (
	repoRoot = ".."
	buildDir = "../.bench_build"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" untraced pass, "1" traced pass, "both"
	scale    float64
	out      string
	traceDir string
	par      int // workers/ranks of the guarded multi-worker samples
}

func main() {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long each pass measures (a floor of rounds is always taken)")
	flag.StringVar(&cfg.trace, "trace", "both", "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), both")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink n and sample counts (tests only; recorded, and never comparable with a full run)")
	flag.StringVar(&cfg.out, "out", "", "append one JSON record per workload and pass to this file")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "write the traced pass's spans to <dir>/<workload>.json")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare a.json b.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	cfg.par = multiWorkers(runtime.GOMAXPROCS(0))
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// multiWorkers is P of the guarded multi-worker samples: min(procs, 4),
// rounded down to the power of two μDBSCAN-D's rank count has to be.
func multiWorkers(procs int) int {
	p := 1
	for p*2 <= min(procs, 4) {
		p *= 2
	}
	return p
}

// record is one line of an -out file: one pass over one workload.
type record struct {
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seed       int64                  `json:"seed"`
	Scale      float64                `json:"scale"`
	Seconds    float64                `json:"seconds"`
	Rounds     int                    `json:"rounds"`
	Nproc      int                    `json:"nproc"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]recordValue `json:"metrics"`
}

// recordValue is one metric. The result line leaves Samples at zero, and so
// out: the driver wants exactly value and unit there.
type recordValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// resultLine is the last line of standard output, in the driver's format.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]recordValue `json:"metrics"`
}

// run executes the configured passes and reports whether every output was
// correct. An error means the run could not produce its metrics at all.
func run(cfg config, stdout io.Writer) (bool, error) {
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "mudbscan")); err != nil {
		return false, fmt.Errorf("the working directory must be the benchmark's own, inside the repository (use run.sh): %w", err)
	}
	if cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both" {
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", cfg.trace)
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return false, fmt.Errorf("-scale %g: want (0, 1]", cfg.scale)
	}
	wls := workloads
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		wls = []*workload{w}
	}

	env, err := newEnv()
	if err != nil {
		return false, err
	}
	defer env.close()

	final := resultLine{Correct: true, Metrics: map[string]recordValue{}}
	for _, w := range wls {
		h, err := newHarness(env, w, cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		var recs []record
		if cfg.trace != "1" {
			rec, err := h.untracedPass()
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			recs = append(recs, rec)
		}
		if cfg.trace != "0" {
			rec, err := h.tracedPass()
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			recs = append(recs, rec)
		}
		for _, rec := range recs {
			rec.Correct = rec.Correct && h.setupCorrect
			printRecord(stdout, rec)
			if cfg.out != "" {
				if err := appendRecord(cfg.out, rec); err != nil {
					return false, err
				}
			}
			final.Correct = final.Correct && rec.Correct
			final.Attempted += rec.Attempted
			final.Failed += rec.Failed
			for name, v := range rec.Metrics {
				if len(wls) > 1 {
					name = w.name + "/" + name
				}
				final.Metrics[name] = recordValue{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return final.Correct, nil
}

// env is what all workloads of one run share: the scratch directory, the
// built CLI, and the child processes still running.
type env struct {
	tmp    string // relative, so that unix socket paths stay short
	tmpAbs string
	cli    string

	ctx    context.Context // cancelled by close: kills children a missed deadline left behind
	stop   context.CancelFunc
	mu     sync.Mutex // orders procs.Add before close's procs.Wait
	closed bool
	procs  sync.WaitGroup

	socks atomic.Int64 // numbers the daemons' socket files
}

// newEnv makes the scratch directory under buildDir and builds cmd/mudbscan
// into it. A binary an earlier run left behind is never reused.
func newEnv() (*env, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{tmp: tmp}
	e.ctx, e.stop = context.WithCancel(context.Background())
	// An interrupted run must not leave its scratch directory behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			e.close()
			os.Exit(1)
		case <-e.ctx.Done():
		}
	}()
	if e.tmpAbs, err = filepath.Abs(tmp); err != nil {
		e.close()
		return nil, err
	}
	e.cli = filepath.Join(e.tmpAbs, "mudbscan")
	build := exec.Command("go", "build", "-o", e.cli, "./cmd/mudbscan")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build ./cmd/mudbscan: %w\n%s", err, out)
	}
	return e, nil
}

// close stops every child process still running, waits for them, and removes
// everything the run wrote.
func (e *env) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.stop()
	e.procs.Wait()
	os.RemoveAll(e.tmp)
	os.Remove(buildDir) // only succeeds when no other run is using it
}

// runCLI runs the built mudbscan to its end and returns its peak resident
// set in MB. A child that outlives its operation's deadline is killed by
// close, which also waits for it.
//
// The peak is the last VmHWM seen in /proc/<pid>/status, polled while the
// child runs. wait4's ru_maxrss cannot be used: Go starts children with
// vfork, the child shares this process's address space until it execs, and
// Linux carries that space's high-water mark into the child's ru_maxrss — it
// reported this benchmark's own 90-150 MB for a child that peaks at 46.
func (e *env) runCLI(args ...string) (peakMB float64, err error) {
	cmd := exec.CommandContext(e.ctx, e.cli, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	e.mu.Lock()
	if e.closed { // an operation abandoned at its deadline woke up after the run ended
		e.mu.Unlock()
		return 0, context.Canceled
	}
	e.procs.Add(1)
	e.mu.Unlock()
	defer e.procs.Done()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	exited := make(chan struct{})
	polled := make(chan float64)
	go func() {
		status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
		var peak float64
		// The first read is immediate and the next few come quickly, so that
		// even a child that lives a few milliseconds is seen.
		for wait := rssPollEvery / 32; ; wait = min(2*wait, rssPollEvery) {
			if kb, ok := vmHWM(status); ok {
				peak = float64(kb) * 1024 / 1e6
			}
			select {
			case <-exited:
				polled <- peak
				return
			case <-time.After(wait):
			}
		}
	}()
	err = cmd.Wait()
	close(exited)
	peakMB = <-polled
	if err != nil {
		return peakMB, fmt.Errorf("mudbscan %v: %w: %s", args, err, stderr.Bytes())
	}
	return peakMB, nil
}

// rssPollEvery is how often a running child's VmHWM is read once it has lived
// a few milliseconds: a Go heap grows over tens of milliseconds, and a read
// costs tens of microseconds.
const rssPollEvery = 5 * time.Millisecond

// vmHWM reads the peak resident set, in KiB, from a /proc/<pid>/status file.
// It reports false once the process has exited (a zombie has no Vm* lines).
func vmHWM(statusPath string) (int64, bool) {
	body, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, false
	}
	_, rest, ok := bytes.Cut(body, []byte("VmHWM:"))
	if !ok {
		return 0, false
	}
	var kb int64
	if _, err := fmt.Sscanf(string(rest), "%d kB", &kb); err != nil {
		return 0, false
	}
	return kb, true
}

// harness is one workload's generated input, reference clustering and files.
type harness struct {
	env  *env
	w    *workload
	cfg  config
	n    int
	dim  int
	pts  []geom.Point
	rows [][]float64
	ref  *clustering.Result
	tr   *tracer // nil in the untraced pass

	csv, bin, smallCSV string
	setupCorrect       bool
}

func newHarness(e *env, w *workload, cfg config) (*harness, error) {
	h := &harness{env: e, w: w, cfg: cfg, setupCorrect: true}
	h.n = max(int(float64(w.n)*cfg.scale), 200)
	h.pts = w.gen(h.n)
	h.dim = len(h.pts[0])
	h.rows = make([][]float64, len(h.pts))
	for i, p := range h.pts {
		h.rows[i] = p
	}
	// The reference: the cell engine at one worker is byte-identical to
	// dbscan.Brute by the conformance suite and shares no code with the
	// μR-tree engines under test.
	h.ref, _ = cell.Run(h.pts, w.eps, w.minPts, cell.Options{Workers: 1})
	if cfg.scale == 1 {
		for _, err := range []error{
			checkPin("clusters", h.ref.NumClusters, w.pin.clusters),
			checkPin("cores", h.ref.NumCorePoints(), w.pin.cores),
			checkPin("noise", h.ref.NumNoise(), w.pin.noise),
		} {
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				h.setupCorrect = false
			}
		}
	}
	h.csv = filepath.Join(e.tmpAbs, w.name+".csv")
	h.bin = filepath.Join(e.tmpAbs, w.name+".bin")
	h.smallCSV = filepath.Join(e.tmpAbs, w.name+"-100.csv")
	if err := writeFile(h.csv, h.pts, data.WriteCSV); err != nil {
		return nil, err
	}
	if err := writeFile(h.bin, h.pts, data.WriteBinary); err != nil {
		return nil, err
	}
	if err := writeFile(h.smallCSV, h.pts[:100], data.WriteCSV); err != nil {
		return nil, err
	}
	return h, nil
}

func writeFile(path string, pts []geom.Point, write func(io.Writer, []geom.Point) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pick returns k point indices drawn from the seed; salt separates the draws
// of different operations and rounds.
func (h *harness) pick(k int, salt int64) []int {
	rng := rand.New(rand.NewSource(h.cfg.seed*1_000_003 + salt))
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(h.n)
	}
	return idx
}

// scaled cuts a sample count by -scale, never below lo.
func (h *harness) scaled(count, lo int) int {
	return max(int(float64(count)*h.cfg.scale), lo)
}

// reduce turns a pass's samples into the record of its metrics.
func (h *harness) reduce(p *pass, trace int, defs []metric) (record, error) {
	rec := record{
		Workload: h.w.name, Trace: trace, Seed: h.cfg.seed, Scale: h.cfg.scale, Seconds: h.cfg.seconds,
		Rounds: p.rounds, Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Correct: !p.incorrect, Attempted: p.attempted, Failed: p.failed, Failures: p.failures,
		Metrics: map[string]recordValue{},
	}
	for _, m := range defs {
		vals := p.samples[m.series]
		if len(vals) == 0 {
			return rec, fmt.Errorf("metric %s has no samples; failed operations: %v", m.name, p.failures)
		}
		rec.Metrics[m.name] = recordValue{Value: quantile(vals, m.q), Unit: m.unit, Samples: len(vals)}
	}
	return rec, nil
}

func printRecord(w io.Writer, rec record) {
	pass, defs := "untraced", endToEnd
	if rec.Trace == 1 {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s: %s pass, seed %d, scale %g, %d rounds, nproc %d, GOMAXPROCS %d, %s\n",
		rec.Workload, pass, rec.Seed, rec.Scale, rec.Rounds, rec.Nproc, rec.GoMaxProcs, rec.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tsamples")
	for _, m := range defs {
		v := rec.Metrics[m.name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\n", m.name, v.Value, v.Unit, v.Samples)
	}
	tw.Flush()
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; outputs correct: %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  stopped: %s\n", f)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

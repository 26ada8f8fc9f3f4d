// Command mudbscand runs the μDBSCAN clustering daemon and its client: a
// persistent clustering-as-a-service process that accepts datasets and jobs
// from many concurrent tenants over TCP or unix sockets.
//
// Usage:
//
//	mudbscand serve   -addr :9099 [-net tcp|unix] [-workers 4]
//	                  [-queue 64] [-queue-tenant 8] [-cache 128]
//	mudbscand cluster -addr host:port -eps 0.5 -minpts 5
//	                  [-engine auto|seq|shared|dist|stream|cell] [-param N]
//	                  [-tenant name] [-in points.csv] [-out labels.txt]
//	mudbscand query   -addr host:port -eps 0.5 -minpts 5 -point 1.0,2.0
//	                  [-tenant name] [-in points.csv]
//	mudbscand stats   -addr host:port [-tenant name]
//	mudbscand ping    -addr host:port [-tenant name]
//
// serve blocks until SIGINT/SIGTERM, then shuts down gracefully: queued
// jobs are rejected with a typed shutting-down error, in-flight jobs
// finish, and every connection closes. The client subcommands upload the
// dataset (content-addressed: identical uploads are free), run one
// operation, and print the outcome in the same formats as cmd/mudbscan.
//
// Exit status: 0 on success, 1 on runtime errors, 2 on usage errors.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"mudbscan"
	"mudbscan/internal/data"
	"mudbscan/internal/server"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr), os.Stderr))
}

// usageError marks an error caused by the invocation rather than the run;
// printed records whether the flag package already reported it.
type usageError struct {
	err     error
	printed bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

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
			fmt.Fprintln(stderr, "mudbscand:", ue.err)
		}
		return 2
	}
	fmt.Fprintln(stderr, "mudbscand:", err)
	return 1
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usagef("want a subcommand: serve, cluster, query, stats or ping")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "serve":
		return runServe(rest, stdout, stderr)
	case "cluster", "query", "stats", "ping":
		return runClient(sub, rest, stdin, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stderr, "usage: mudbscand <serve|cluster|query|stats|ping> [flags]")
		return flag.ErrHelp
	default:
		return usagef("unknown subcommand %q (want serve, cluster, query, stats or ping)", sub)
	}
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mudbscand serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:0", "listen address (host:port, or socket path with -net unix)")
		netw    = fs.String("net", "tcp", "listener network: tcp or unix")
		workers = fs.Int("workers", 0, "clustering worker pool size (0 = GOMAXPROCS)")
		queueT  = fs.Int("queue", 0, "total queued-job bound (0 = default 64)")
		queueP  = fs.Int("queue-tenant", 0, "per-tenant queued-job bound (0 = default 8)")
		cache   = fs.Int("cache", 0, "result-cache entries (0 = default 128)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{err: err, printed: true}
	}
	if *netw != "tcp" && *netw != "unix" {
		return usagef("unknown -net %q (want tcp or unix)", *netw)
	}
	ln, err := net.Listen(*netw, *addr)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueTotal:      *queueT,
		QueuePerTenant:  *queueP,
		ResultCacheSize: *cache,
	})
	// The bound address line is the readiness signal scripts wait for.
	fmt.Fprintf(stdout, "mudbscand listening on %s://%s\n", *netw, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "mudbscand: %v, shutting down\n", s)
		if err := srv.Close(); err != nil {
			return err
		}
		return <-errc
	case err := <-errc:
		srv.Close()
		return err
	}
}

func runClient(sub string, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mudbscand "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "", "daemon address (required)")
		netw   = fs.String("net", "tcp", "daemon network: tcp or unix")
		tenant = fs.String("tenant", "cli", "tenant name for fairness accounting")
		eps    = fs.Float64("eps", 0, "DBSCAN ε radius")
		minPts = fs.Int("minpts", 5, "DBSCAN MinPts density threshold")
		engine = fs.String("engine", "auto", "engine: auto, seq, shared, dist, stream or cell")
		param  = fs.Int("param", 0, "engine parameter: shared workers or dist ranks (0 = engine default)")
		point  = fs.String("point", "", "query point for the query subcommand (comma-separated)")
		inPath = fs.String("in", "-", "input dataset (CSV, or .bin binary; - = stdin)")
		out    = fs.String("out", "-", "output file (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{err: err, printed: true}
	}
	if *addr == "" {
		return usagef("%s: -addr is required", sub)
	}
	var eng server.Engine
	if sub == "cluster" || sub == "query" {
		// Validate the job flags before dialing so usage errors never need
		// a live daemon.
		if *eps <= 0 {
			return usagef("%s: -eps is required and must be positive", sub)
		}
		var err error
		if eng, err = mudbscan.ParseEngine(*engine); err != nil {
			return usagef("%v", err)
		}
		if sub == "query" && *point == "" {
			return usagef("query: -point is required")
		}
	}
	cl, err := server.Dial(*netw, *addr, *tenant)
	if err != nil {
		return err
	}
	defer cl.Close()

	switch sub {
	case "ping":
		if err := cl.Ping(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ok")
		return nil
	case "stats":
		m, err := cl.Stats()
		if err != nil {
			return err
		}
		// Render sorted so scripted diffs are stable.
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name) //mulint:allow determinism/maprange sorted immediately below
		}
		sort.Strings(names)
		w := bufio.NewWriter(stdout)
		for _, name := range names {
			fmt.Fprintf(w, "%s %d\n", name, m[name])
		}
		return w.Flush()
	}

	set, err := data.ReadFile(*inPath, stdin)
	if err != nil {
		return err
	}
	rows := make([][]float64, set.Len())
	for i := range rows {
		rows[i] = set.Row(i)
	}
	id, err := cl.Put(rows)
	if err != nil {
		return err
	}

	switch sub {
	case "cluster":
		r, err := cl.Cluster(id, *eps, *minPts, eng, *param)
		if err != nil {
			return err
		}
		return data.WriteLabels(*out, stdout, r.Labels)
	case "query":
		pt, err := parsePoint(*point)
		if err != nil {
			return usagef("query: %v", err)
		}
		ids, err := cl.EpsQuery(id, *eps, *minPts, pt)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(stdout)
		for _, i := range ids {
			fmt.Fprintln(w, i)
		}
		return w.Flush()
	}
	return usagef("unknown subcommand %q", sub)
}

func parsePoint(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	pt := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -point coordinate %q", p)
		}
		pt[i] = v
	}
	return pt, nil
}

package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mudbscan"
	"mudbscan/internal/server"
)

// The untraced pass: what a user of the library, the CLI and the daemon sees.
// The tracer is nil here, so the operations the traced pass shares with this
// one record no span. Every end-to-end metric pins one worker: the
// multi-worker entry points can deadlock (README.md, "Finding").

const queriesPerRound = 1000 // warm ε-queries per round, one closed-loop client

// daemon is one in-process mudbscand on a unix socket with one client.
type daemon struct {
	srv  *server.Server
	cl   *server.Client
	sock string
}

// startDaemon listens, serves and dials. The socket path is relative so that
// it fits sun_path however deep the checkout is.
func (h *harness) startDaemon() (*daemon, error) {
	sock := filepath.Join(h.env.tmp, fmt.Sprintf("%s-%d.sock", h.w.name, h.env.socks.Add(1)))
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(server.Config{Workers: 1}), sock: sock}
	go d.srv.Serve(ln) // returns when close shuts the server down; Close waits for it
	d.cl, err = server.Dial("unix", sock, "bench")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.cl.Close()
	d.srv.Close()
	os.Remove(d.sock)
}

func (h *harness) untracedPass() (record, error) {
	h.tr = nil
	// The daemon the warm queries run against: dataset stored here, μR-tree
	// index built by the queries' own warm-up, before the first timed call.
	d, err := h.startDaemon()
	if err != nil {
		return record{}, err
	}
	defer d.close()
	id, err := d.cl.Put(h.rows)
	if err != nil {
		return record{}, fmt.Errorf("put: %w", err)
	}
	ops := []*op{
		h.opCluster("cluster_mu", "cluster_mu_s"),
		h.opCluster("cluster_auto", "cluster_auto_s", mudbscan.WithEngine(mudbscan.EngineAuto), mudbscan.WithWorkers(1)),
		h.opCLI("cli_cluster_s", "cli_peak_rss_mb"),
		h.opSetup(),
		h.opQueries(d.cl, id, h.scaled(queriesPerRound, 100)),
		h.opStream("stream_run_s", false),
	}
	p := h.runPass(ops, time.Duration(h.cfg.seconds*float64(time.Second)), h.scaled(5, 1), 10)
	return h.reduce(p, 0, endToEnd)
}

// opCluster times the public entry point on the whole dataset.
func (h *harness) opCluster(name, series string, opts ...mudbscan.Option) *op {
	return &op{name: name, run: func(int) (result, error) {
		t := time.Now()
		r, err := mudbscan.Cluster(h.rows, h.w.eps, h.w.minPts, opts...)
		took := time.Since(t)
		if err != nil {
			return result{}, err
		}
		return result{obs: []obs{one(series, took.Seconds())}}, checkResult(h.ref, r)
	}}
}

// opCLI times a child process from file to labels and takes its peak RSS.
func (h *harness) opCLI(timeSeries, rssSeries string) *op {
	out := filepath.Join(h.env.tmpAbs, h.w.name+"-labels.txt")
	return &op{name: "cli", run: func(int) (result, error) {
		t := time.Now()
		peakMB, err := h.env.runCLI(h.cliArgs(h.csv, out)...)
		took := time.Since(t)
		if err != nil {
			return result{}, err
		}
		res := result{obs: []obs{one(timeSeries, took.Seconds())}}
		if rssSeries != "" && peakMB > 0 {
			res.obs = append(res.obs, one(rssSeries, peakMB))
		}
		labels, err := readLabels(out)
		if err != nil {
			return res, err
		}
		return res, checkLabels(h.ref, labels)
	}}
}

// cliArgs is the sequential engine from file to labels.
func (h *harness) cliArgs(in, out string) []string {
	return []string{"-mode", "seq", "-in", in, "-out", out,
		"-eps", strconv.FormatFloat(h.w.eps, 'g', -1, 64), "-minpts", strconv.Itoa(h.w.minPts)}
}

// opSetup is what a tenant pays before the first warm answer: a fresh daemon,
// the upload, and the first ε-query, which builds the μR-tree index.
func (h *harness) opSetup() *op {
	return &op{name: "setup", run: func(int) (result, error) {
		t := time.Now()
		d, err := h.startDaemon()
		if err != nil {
			return result{}, err
		}
		defer d.close()
		id, err := d.cl.Put(h.rows)
		if err != nil {
			return result{}, err
		}
		ids, err := d.cl.EpsQuery(id, h.w.eps, h.w.minPts, h.rows[0])
		took := time.Since(t)
		if err != nil {
			return result{}, err
		}
		return result{obs: []obs{one("setup_s", took.Seconds())}}, checkNeighbors(h.pts, h.w.eps, h.pts[0], ids)
	}}
}

// opQueries is one batch of warm ε-queries per call, with fresh centres every
// call. The metrics are the batch's percentiles, and a run reports their
// median over its batches: a burst on the host that inflates one batch in five
// would sit squarely on the p90 of all queries pooled.
func (h *harness) opQueries(cl *server.Client, id server.DatasetID, count int) *op {
	calls := int64(0)
	return &op{name: "queries", run: func(int) (result, error) {
		calls++
		lat, _, err := h.queryBatch(cl, id, count, 1000+calls)
		res := result{n: max(len(lat), 1)}
		if err == nil {
			res.obs = []obs{one("query_p50_us", quantile(lat, 0.5)), one("query_p90_us", quantile(lat, 0.9))}
		}
		return res, err
	}}
}

// queryBatch sends count warm ε-queries at the workload's ε, closed loop, with
// centres drawn from the dataset by the seed and salt, and brute-scans one
// answer in a hundred. It returns the latencies in µs and the mean answer size.
func (h *harness) queryBatch(cl *server.Client, id server.DatasetID, count int, salt int64) (lat []float64, meanHits float64, err error) {
	centres := h.pick(count, salt)
	lat = make([]float64, 0, count)
	type answer struct {
		centre int
		ids    []int
	}
	var kept []answer
	hits := 0
	for i, c := range centres {
		t := time.Now()
		ids, err := cl.EpsQuery(id, h.w.eps, h.w.minPts, h.rows[c])
		lat = append(lat, micros(time.Since(t)))
		if err != nil {
			return lat, 0, err
		}
		hits += len(ids)
		if i%100 == 0 {
			kept = append(kept, answer{c, ids})
		}
	}
	for _, a := range kept {
		if err := checkNeighbors(h.pts, h.w.eps, h.pts[a.centre], a.ids); err != nil {
			return lat, 0, err
		}
	}
	return lat, float64(hits) / float64(count), nil
}

// opStream feeds the rows in order through a damped window that keeps about
// the last quarter of the stream, with a snapshot every n/8 arrivals, and
// re-clusters the final snapshot's points as the check. With layers set it
// also reports the ingest/snapshot split and the window's counters.
func (h *harness) opStream(series string, layers bool) *op {
	return &op{name: "stream", noWarm: layers, run: func(parent int) (result, error) {
		sp := h.tr.start("stream.run", parent)
		t := time.Now()
		c, err := mudbscan.NewStreamClusterer(h.dim, h.w.eps, h.w.minPts, mudbscan.StreamOptions{Lambda: math.Ln10 / float64(h.n/4)})
		if err != nil {
			return result{}, err
		}
		every := h.n / 8
		var snap *mudbscan.StreamSnapshot
		var snapTimes []float64
		var snapTotal time.Duration
		for k, row := range h.rows {
			if err := c.Add(row); err != nil {
				return result{}, err
			}
			if (k+1)%every == 0 {
				ssp := h.tr.start("stream.snapshot", sp)
				ts := time.Now()
				snap = c.Snapshot()
				d := time.Since(ts)
				h.tr.end(ssp)
				snapTotal += d
				snapTimes = append(snapTimes, millis(d))
			}
		}
		took := time.Since(t)
		h.tr.end(sp)
		res := result{obs: []obs{one(series, took.Seconds())}}
		if layers {
			res.obs = append(res.obs,
				one("stream.add_ns_per_pt", float64((took-snapTotal).Nanoseconds())/float64(h.n)),
				one("stream.snapshot_ms", median(snapTimes[1:])), // the first window is still filling
				one("stream.live_points", float64(snap.Len())),
				one("stream.evicted_points", float64(c.Stats().EvictedPoints)))
		}
		live := make([][]float64, snap.Len())
		for i := range live {
			live[i] = snap.Points.Row(i)
		}
		again, err := mudbscan.Cluster(live, h.w.eps, h.w.minPts)
		if err != nil {
			return res, err
		}
		return res, checkResult(again, snap.Result())
	}}
}

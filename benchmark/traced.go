package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mudbscan/internal/cell"
	"mudbscan/internal/clustering"
	"mudbscan/internal/core"
	"mudbscan/internal/data"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
	"mudbscan/internal/kdtree"
	"mudbscan/internal/mc"
	"mudbscan/internal/rtree"
	"mudbscan/internal/server"
	"mudbscan/internal/shared"
	"mudbscan/internal/unionfind"
)

// The traced pass: each layer's public functions called in turn, bottom up,
// under spans the harness records around the calls. Counts come from what the
// layer's function returns, times from the spans. Whole-dataset builds and
// runs take no warm-up; the query loops do.

const (
	scanCentres   = 64    // geom: whole-block scans
	layerQueries  = 2000  // rtree, kdtree, mc: sphere/ε queries
	serverQueries = 10000 // server: enough for ten samples beyond p99.9
	pings         = 200
	replays       = 100 // of the cached job
	cliStartups   = 5
	distRanks     = 4
	overheadPairs = 3             // traced core.Run / untraced mudbscan.Cluster alternations per round
	wpDeadline    = deadlineFloor // of a multi-worker sample, which gets no warm-up that could hang
)

func (h *harness) tracedPass() (record, error) {
	h.tr = newTracer(h.w.name)
	set := geom.PointSetFromPoints(h.dim, h.pts)
	p := h.cfg.par
	ops := []*op{
		h.opGen(),
		h.opGeom(set),
		h.opRTree(set),
		h.opKDTree(),
		h.opUnionFind(),
		h.opMC(),
		h.opCore(),
		h.opCell(),
		h.opShared(),
		h.opDistSerial(),
		h.opStream("_stream_run_s", true),
		h.opServer(),
		h.opData(),
		h.opCLILayers(),
		// Last: these may never return, and what they leave parked holds memory.
		h.opMulti("shared.run_wp", func() (*clustering.Result, error) {
			r, _ := shared.Run(h.pts, h.w.eps, h.w.minPts, shared.Options{Workers: p})
			return r, nil
		}),
		h.opMulti("cell.run_wp", func() (*clustering.Result, error) {
			r, _ := cell.Run(h.pts, h.w.eps, h.w.minPts, cell.Options{Workers: p})
			return r, nil
		}),
		h.opMulti("dist.wall", func() (*clustering.Result, error) {
			r, _, err := dist.MuDBSCAND(h.pts, h.w.eps, h.w.minPts, p, dist.Options{Exec: dist.ExecConcurrent})
			return r, err
		}),
	}
	ps := h.runPass(ops, time.Duration(h.cfg.seconds*float64(time.Second)), 1, 3)

	// Derived metrics: differences of medians of what the pass measured.
	if run := ps.samples["core.run_s"]; len(run) > 0 {
		coreRun := median(run)
		if v := ps.samples["server.job_cold_ms"]; len(v) > 0 {
			ps.samples["server.job_overhead_ms"] = []float64{median(v) - 1000*coreRun}
		}
		if v := ps.samples["_cli_cluster_s"]; len(v) > 0 {
			ps.samples["cli.io_overhead_ms"] = []float64{1000 * (median(v) - coreRun)}
		}
		if v := ps.samples["_cluster_mu_s"]; len(v) > 0 {
			// Fastest against fastest: on a shared host noise only ever adds,
			// and a few per cent of it would drown a cost this small.
			plain := quantile(v, 0)
			ps.samples["harness.trace_overhead_pct"] = []float64{100 * (quantile(run, 0) - plain) / plain}
		}
	}
	if h.cfg.traceDir != "" {
		if err := h.writeTrace(); err != nil {
			return record{}, err
		}
	}
	return h.reduce(ps, 1, perLayer)
}

// writeTrace writes the spans as <trace-dir>/<workload>.json.
func (h *harness) writeTrace() error {
	if err := os.MkdirAll(h.cfg.traceDir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{h.w.name, h.cfg.seed, h.tr.finished()})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.cfg.traceDir, h.w.name+".json"), body, 0o644)
}

func (h *harness) opGen() *op {
	return &op{name: "harness.gen", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("harness.gen", parent)
		pts := h.w.gen(h.n)
		d := h.tr.end(sp)
		if len(pts) != h.n {
			return result{}, fmt.Errorf("generator made %d points, want %d", len(pts), h.n)
		}
		return result{obs: []obs{one("harness.gen_s", d.Seconds())}}, nil
	}}
}

// opGeom scans the whole coordinate block around seeded centres: the leaf-scan
// primitive of every index, with no index above it.
func (h *harness) opGeom(set *geom.PointSet) *op {
	ids := make([]int, h.n)
	for i := range ids {
		ids[i] = i
	}
	centres := h.pick(scanCentres, 1)
	return &op{name: "geom", run: func(parent int) (result, error) {
		var dst []int
		r2 := h.w.eps * h.w.eps
		sp := h.tr.start("geom.scan", parent)
		for _, c := range centres {
			dst = geom.AppendWithinBlock(dst[:0], ids, set.Data(), h.dim, h.pts[c], r2, false)
		}
		d := h.tr.end(sp)
		dists := float64(len(centres) * h.n)
		return result{obs: []obs{
			one("geom.scan_ns_per_dist", float64(d.Nanoseconds())/dists),
			one("geom.scan_dists", dists),
		}}, checkNeighbors(h.pts, h.w.eps, h.pts[centres[len(centres)-1]], dst)
	}}
}

// opRTree grows one tree by insertion (the way the MC-centre tree grows),
// bulk-loads another (the way the per-MC aux trees are built) and queries the
// bulk-loaded one, which is the read path.
func (h *harness) opRTree(set *geom.PointSet) *op {
	centres := h.pick(h.scaled(layerQueries, 100), 2)
	return &op{name: "rtree", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("rtree.insert", parent)
		grown := rtree.New(h.dim, 0)
		for i, p := range h.pts {
			grown.Insert(i, p)
		}
		insert := h.tr.end(sp)

		sp = h.tr.start("rtree.bulkload", parent)
		packed := rtree.BulkLoadSet(0, set, nil)
		bulk := h.tr.end(sp)

		var dst []int
		calcs := 0
		sp = h.tr.start("rtree.sphere", parent)
		for _, c := range centres {
			var k int
			dst, k = packed.SphereInto(h.pts[c], h.w.eps, true, dst[:0])
			calcs += k
		}
		sphere := h.tr.end(sp)
		q := float64(len(centres))
		return result{obs: []obs{
			one("rtree.insert_ns_per_pt", float64(insert.Nanoseconds())/float64(h.n)),
			one("rtree.bulkload_ns_per_pt", float64(bulk.Nanoseconds())/float64(h.n)),
			one("rtree.sphere_ns_per_query", float64(sphere.Nanoseconds())/q),
			one("rtree.sphere_distcalcs_per_query", float64(calcs)/q),
			one("rtree.height", float64(grown.Height())),
		}}, checkNeighborSet(h.pts, h.w.eps, h.pts[centres[len(centres)-1]], dst)
	}}
}

// opKDTree is the control: μDBSCAN-D partitions with it and nothing else
// does, so it should not move with μR-tree work.
func (h *harness) opKDTree() *op {
	centres := h.pick(h.scaled(layerQueries, 100), 3)
	return &op{name: "kdtree", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("kdtree.build", parent)
		t := kdtree.Build(h.dim, h.pts, nil)
		build := h.tr.end(sp)
		var dst []int
		sp = h.tr.start("kdtree.sphere", parent)
		for _, c := range centres {
			dst, _ = t.SphereInto(h.pts[c], h.w.eps, true, dst[:0])
		}
		sphere := h.tr.end(sp)
		return result{obs: []obs{
			one("kdtree.build_ns_per_pt", float64(build.Nanoseconds())/float64(h.n)),
			one("kdtree.sphere_ns_per_query", float64(sphere.Nanoseconds())/float64(len(centres))),
		}}, checkNeighborSet(h.pts, h.w.eps, h.pts[centres[len(centres)-1]], dst)
	}}
}

func (h *harness) opUnionFind() *op {
	rng := rand.New(rand.NewSource(h.cfg.seed*1_000_003 + 4))
	edges := make([][2]int, h.n)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(h.n), rng.Intn(h.n)}
	}
	return &op{name: "unionfind", run: func(parent int) (result, error) {
		sp := h.tr.start("unionfind.union", parent)
		uf := unionfind.New(h.n)
		merges := 0
		for _, e := range edges {
			if uf.Union(e[0], e[1]) {
				merges++
			}
		}
		d := h.tr.end(sp)
		if uf.Sets() != h.n-merges {
			return result{}, fmt.Errorf("%w: %d sets after %d merges of %d", errMismatch, uf.Sets(), merges, h.n)
		}
		return result{obs: []obs{one("unionfind.union_ns_per_op", float64(d.Nanoseconds())/float64(len(edges)))}}, nil
	}}
}

// opMC builds the μR-tree the way core.Run's first two steps do, and runs the
// reduced-search-space ε-query the clustering step is made of.
func (h *harness) opMC() *op {
	centres := h.pick(h.scaled(layerQueries, 100), 5)
	return &op{name: "mc", noWarm: true, run: func(parent int) (result, error) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		sp := h.tr.start("mc.build", parent)
		ix := mc.Build(h.pts, h.w.eps, h.w.minPts, mc.Options{SkipReachable: true})
		build := h.tr.end(sp)
		runtime.GC()
		runtime.ReadMemStats(&m1)

		sp = h.tr.start("mc.reachable", parent)
		ix.ComputeReachable()
		reach := h.tr.end(sp)

		var dst []int
		calcs, trees := 0, 0
		sp = h.tr.start("mc.eps_query", parent)
		for _, c := range centres {
			var k, t int
			dst, k, t = ix.EpsNeighborhoodInto(h.pts[c], c, dst[:0])
			calcs += k
			trees += t
		}
		query := h.tr.end(sp)
		q := float64(len(centres))
		res := result{obs: []obs{
			one("mc.build_s", build.Seconds()),
			one("mc.reachable_s", reach.Seconds()),
			one("mc.num_mcs", float64(ix.NumMCs())),
			one("mc.heap_mb", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1e6),
			one("mc.eps_query_ns", float64(query.Nanoseconds())/q),
			one("mc.eps_query_distcalcs", float64(calcs)/q),
			one("mc.eps_query_trees", float64(trees)/q),
		}}
		if h.cfg.scale == 1 {
			if err := checkPin("micro-clusters", ix.NumMCs(), h.w.pin.mcs); err != nil {
				return res, err
			}
		}
		return res, checkNeighborSet(h.pts, h.w.eps, h.pts[centres[len(centres)-1]], dst)
	}}
}

// opCore is the paper's sequential engine. Its four steps are boundaries the
// harness cannot see, so their spans are laid end to end inside the run span
// from the StepTimes the run returns. Each traced run alternates with the same
// run through the public entry point with no span anywhere near it: the
// difference is what tracing costs.
func (h *harness) opCore() *op {
	untraced := h.opCluster("", "_cluster_mu_s")
	return &op{name: "core", noWarm: true, run: func(parent int) (result, error) {
		var res result
		for i := 0; i < overheadPairs; i++ {
			sp := h.tr.start("core.run", parent)
			r, st := core.Run(h.pts, h.w.eps, h.w.minPts, core.Options{})
			d := h.tr.end(sp)
			h.steps(sp, []step{
				{"core.step_tree", st.Steps.TreeConstruction},
				{"core.step_reachable", st.Steps.FindingReachable},
				{"core.step_cluster", st.Steps.Clustering},
				{"core.step_post", st.Steps.PostProcessing},
			})
			res.n += 2
			res.obs = append(res.obs,
				one("core.run_s", d.Seconds()),
				one("core.step_tree_s", st.Steps.TreeConstruction.Seconds()),
				one("core.step_reachable_s", st.Steps.FindingReachable.Seconds()),
				one("core.step_cluster_s", st.Steps.Clustering.Seconds()),
				one("core.step_post_s", st.Steps.PostProcessing.Seconds()),
				one("core.queries", float64(st.Queries)),
				one("core.queries_saved_pct", st.QuerySavedPct()),
				one("core.distcalcs", float64(st.DistCalcs)))
			if err := checkResult(h.ref, r); err != nil {
				return res, err
			}
			plain, err := untraced.run(-1)
			res.obs = append(res.obs, plain.obs...)
			if err != nil {
				return res, err
			}
		}
		return res, nil
	}}
}

type step struct {
	name string
	d    time.Duration
}

// steps lays a layer's own step times end to end inside its run span.
func (h *harness) steps(parent int, steps []step) {
	var off time.Duration
	for _, s := range steps {
		h.tr.child(s.name, parent, off, s.d)
		off += s.d
	}
}

func (h *harness) opCell() *op {
	const decides = 16
	return &op{name: "cell", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("cell.run_w1", parent)
		r, st := cell.Run(h.pts, h.w.eps, h.w.minPts, cell.Options{Workers: 1})
		d := h.tr.end(sp)
		h.steps(sp, []step{
			{"cell.step_build", st.Steps.Build},
			{"cell.step_adjacency", st.Steps.Adjacency},
			{"cell.step_mark", st.Steps.Mark},
			{"cell.step_connect", st.Steps.Connect},
			{"cell.step_assign", st.Steps.Assign},
		})
		sp = h.tr.start("cell.decide", parent)
		for i := 0; i < decides; i++ {
			cell.Decide(cell.Sample(h.pts, h.w.eps, h.w.minPts))
		}
		decide := h.tr.end(sp)
		return result{obs: []obs{
			one("cell.run_w1_s", d.Seconds()),
			one("cell.step_build_s", st.Steps.Build.Seconds()),
			one("cell.step_adjacency_s", st.Steps.Adjacency.Seconds()),
			one("cell.step_mark_s", st.Steps.Mark.Seconds()),
			one("cell.step_connect_s", st.Steps.Connect.Seconds()),
			one("cell.step_assign_s", st.Steps.Assign.Seconds()),
			one("cell.cells", float64(st.Cells)),
			one("cell.dense_cells", float64(st.DenseCells)),
			one("cell.distcalcs", float64(st.DistCalcs)),
			one("cell.decide_us", micros(decide)/decides),
		}}, checkResult(h.ref, r)
	}}
}

func (h *harness) opShared() *op {
	return &op{name: "shared", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("shared.run_w1", parent)
		r, _ := shared.Run(h.pts, h.w.eps, h.w.minPts, shared.Options{Workers: 1})
		d := h.tr.end(sp)
		return result{obs: []obs{one("shared.run_w1_s", d.Seconds())}}, checkResult(h.ref, r)
	}}
}

// opMulti is one deadline-guarded sample of a multi-worker engine. It gets no
// warm-up (that could hang for the flat 30 s) and the floor as its deadline.
func (h *harness) opMulti(name string, run func() (*clustering.Result, error)) *op {
	return &op{name: name, noWarm: true, deadline: wpDeadline, mayHang: true,
		run: func(parent int) (result, error) {
			sp := h.tr.start(name, parent)
			r, err := run()
			d := h.tr.end(sp)
			if err != nil {
				return result{}, err
			}
			return result{obs: []obs{one(name+"_s", d.Seconds())}}, checkResult(h.ref, r)
		}}
}

// opDistSerial is one μDBSCAN-D at four ranks with the compute phases run one
// rank at a time, so that the phase times and the counts are exact.
func (h *harness) opDistSerial() *op {
	return &op{name: "dist", noWarm: true, run: func(parent int) (result, error) {
		sp := h.tr.start("dist.serial", parent)
		r, st, err := dist.MuDBSCAND(h.pts, h.w.eps, h.w.minPts, distRanks, dist.Options{Exec: dist.ExecSerial})
		d := h.tr.end(sp)
		if err != nil {
			return result{}, err
		}
		ph := st.Phases
		local := ph.TreeConstruction + ph.FindingReachable + ph.Clustering + ph.PostProcessing
		h.steps(sp, []step{
			{"dist.phase_partition", ph.Partition},
			{"dist.phase_halo", ph.HaloExchange},
			{"dist.phase_local", local},
			{"dist.phase_merge", ph.Merge},
		})
		var msgs int64
		for _, m := range st.Comm.MsgsSent {
			msgs += m
		}
		return result{obs: []obs{
			one("dist.serial_total_s", d.Seconds()),
			one("dist.phase_partition_s", ph.Partition.Seconds()),
			one("dist.phase_halo_s", ph.HaloExchange.Seconds()),
			one("dist.phase_local_s", local.Seconds()),
			one("dist.phase_merge_s", ph.Merge.Seconds()),
			one("dist.halo_points", float64(st.HaloPoints)),
			one("dist.comm_bytes", float64(st.Comm.TotalBytes())),
			one("dist.comm_msgs", float64(msgs)),
			one("dist.merge_bytes", float64(st.MergeBytes)),
		}}, checkResult(h.ref, r)
	}}
}

// opServer walks a fresh daemon through a tenant's first minute: upload,
// first ε-query (index build), pings (the wire floor), the cold job, then
// warm queries for the tail percentiles the end-to-end metrics leave out.
func (h *harness) opServer() *op {
	return &op{name: "server", noWarm: true, run: func(parent int) (result, error) {
		d, err := h.startDaemon()
		if err != nil {
			return result{}, err
		}
		defer d.close()

		sp := h.tr.start("server.put", parent)
		id, err := d.cl.Put(h.rows)
		put := h.tr.end(sp)
		if err != nil {
			return result{}, err
		}
		sp = h.tr.start("server.index_build", parent)
		_, err = d.cl.EpsQuery(id, h.w.eps, h.w.minPts, h.rows[0])
		index := h.tr.end(sp)
		if err != nil {
			return result{}, err
		}
		pingLat := make([]float64, 0, pings)
		sp = h.tr.start("server.ping", parent)
		for i := 0; i < pings; i++ {
			t := time.Now()
			if err := d.cl.Ping(); err != nil {
				return result{}, err
			}
			pingLat = append(pingLat, micros(time.Since(t)))
		}
		h.tr.end(sp)
		sp = h.tr.start("server.job_cold", parent)
		r, err := d.cl.Cluster(id, h.w.eps, h.w.minPts, server.EngineSeq, 0)
		cold := h.tr.end(sp)
		if err != nil {
			return result{}, err
		}
		if err := checkResult(h.ref, r); err != nil {
			return result{}, err
		}
		// The same job again: wire + result-cache copy + encode + decode.
		cachedLat := make([]float64, 0, replays)
		sp = h.tr.start("server.job_cached", parent)
		for i := 0; i < replays; i++ {
			t := time.Now()
			r, err = d.cl.Cluster(id, h.w.eps, h.w.minPts, server.EngineSeq, 0)
			if err != nil {
				return result{}, err
			}
			cachedLat = append(cachedLat, millis(time.Since(t)))
		}
		h.tr.end(sp)
		if err := checkResult(h.ref, r); err != nil {
			return result{}, err
		}
		sp = h.tr.start("server.queries", parent)
		lat, meanHits, err := h.queryBatch(d.cl, id, h.scaled(serverQueries, 1000), 2000)
		h.tr.end(sp)
		if err != nil {
			return result{}, err
		}
		return result{n: len(lat) + pings + replays + 3, obs: []obs{
			{"_server_query_us", lat},
			one("server.query_hits_mean", meanHits),
			one("server.put_ms", millis(put)),
			one("server.index_build_ms", millis(index)),
			one("server.ping_us", median(pingLat)),
			one("server.job_cold_ms", millis(cold)),
			one("server.job_cached_ms", median(cachedLat)),
			// The response body: cluster count, n, a core-flags marker, then
			// an i64 label and a core byte per point.
			one("server.result_bytes", float64(9+9*len(r.Labels))),
		}}, nil
	}}
}

// opData reads the files the CLI would: the CSV the end-to-end metric uses
// and the binary format next to it.
func (h *harness) opData() *op {
	return &op{name: "data", run: func(parent int) (result, error) {
		info, err := os.Stat(h.csv)
		if err != nil {
			return result{}, err
		}
		csvTime, err := h.readFile("data.read_csv", parent, h.csv, data.ReadCSV)
		if err != nil {
			return result{}, err
		}
		binTime, err := h.readFile("data.read_bin", parent, h.bin, data.ReadBinary)
		if err != nil {
			return result{}, err
		}
		return result{obs: []obs{
			one("data.read_csv_ms", millis(csvTime)),
			one("data.read_bin_ms", millis(binTime)),
			one("data.csv_bytes", float64(info.Size())),
		}, n: 2}, nil
	}}
}

func (h *harness) readFile(name string, parent int, path string, read func(io.Reader) ([]geom.Point, error)) (time.Duration, error) {
	sp := h.tr.start(name, parent)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	pts, err := read(f)
	d := h.tr.end(sp)
	if err != nil {
		return 0, err
	}
	if len(pts) != h.n || !samePoint(pts[h.n-1], h.pts[h.n-1]) {
		return 0, fmt.Errorf("%w: %s did not round-trip", errMismatch, path)
	}
	return d, nil
}

func samePoint(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// opCLILayers splits the CLI's wall time: process start-up on a 100-point
// input, and one full run whose excess over core.run_s is I/O.
func (h *harness) opCLILayers() *op {
	full := h.opCLI("_cli_cluster_s", "")
	small := filepath.Join(h.env.tmpAbs, h.w.name+"-100-labels.txt")
	return &op{name: "cli", noWarm: true, run: func(parent int) (result, error) {
		startups := make([]float64, 0, cliStartups)
		sp := h.tr.start("cli.startup", parent)
		for i := 0; i < cliStartups; i++ {
			t := time.Now()
			if _, err := h.env.runCLI(h.cliArgs(h.smallCSV, small)...); err != nil {
				return result{n: i + 1}, err
			}
			startups = append(startups, millis(time.Since(t)))
		}
		h.tr.end(sp)
		sp = h.tr.start("cli.cluster", parent)
		res, err := full.run(sp)
		h.tr.end(sp)
		res.obs = append(res.obs, one("cli.startup_ms", median(startups)))
		res.n = cliStartups + 1
		return res, err
	}}
}

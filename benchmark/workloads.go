package main

import (
	"mudbscan/internal/data"
	"mudbscan/internal/geom"
)

// pin is what the exact clustering of a workload's full-scale input must look
// like; a run that sees anything else is wrong.
type pin struct{ clusters, cores, noise, mcs int }

// workload is one input regime. n sets the regime and is never cut to save
// time; only sample counts are.
//
// The generators' seeds are fixed: to these generators a seed is a regime, not
// a draw from one. Over generator seeds 1..10 sequential μDBSCAN took
// 0.25–0.73 s on bio14d and 0.61–1.27 s on galaxy3d, with the micro-cluster
// and cluster counts moving along, so reseeding them would report the spread
// between ten workloads as if it were the spread between ten runs of one.
// -seed drives every draw the benchmark itself makes from the dataset: query
// centres, scan centres, edge lists.
type workload struct {
	name   string
	n      int
	eps    float64
	minPts int
	gen    func(n int) []geom.Point
	pin    pin
}

// The four workloads each put most of sequential μDBSCAN's time in a
// different place (step shares of core.Run in README.md), so a gain in one
// layer shows on the workload that leans on it and predicts no change on the
// others:
//
//   - galaxy3d: the paper's low-d headline regime. Tree construction is ~67 %
//     of the μR-tree run and the cell engine wins (auto -> cell).
//   - geodrift2d: the same build layer used differently — 4x the
//     micro-clusters per point, 40 % noise, arrival-ordered input: it is the
//     MC-centre tree, not the per-MC aux trees, that grows. A build change
//     that assumes few, fat micro-clusters costs here.
//   - household5d: the read path. A few hundred giant micro-clusters, so the
//     ε-query/clustering step dominates and build is ~23 % (auto -> μR-tree).
//   - bio14d: high d. Post-processing through the generic (d>4) distance
//     kernel dominates; only a kernel or post-processing change moves it.
var workloads = []*workload{
	{
		name: "galaxy3d", n: 100000, eps: 2.0, minPts: 5,
		gen: func(n int) []geom.Point { return data.GalaxyLike(n, 3, 5) },
		pin: pin{clusters: 46, cores: 91948, noise: 7674, mcs: 8866},
	},
	{
		name: "geodrift2d", n: 100000, eps: 0.5, minPts: 5,
		gen: func(n int) []geom.Point { return data.GeoTraceDrift(n, 1) },
		pin: pin{clusters: 983, cores: 59636, noise: 39946, mcs: 36818},
	},
	{
		name: "household5d", n: 120000, eps: 0.25, minPts: 6,
		gen: func(n int) []geom.Point { return data.HouseholdLike(n, 5, 1) },
		pin: pin{clusters: 6, cores: 119974, noise: 13, mcs: 293},
	},
	{
		name: "bio14d", n: 14500, eps: 600, minPts: 5,
		gen: func(n int) []geom.Point { return data.BioLike(n, 14, 1) },
		pin: pin{clusters: 4, cores: 13776, noise: 721, mcs: 718},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported number: quantile q of the samples of one series.
type metric struct {
	name, unit string
	series     string // name, or a "_" series several metrics are quantiles of
	q          float64
}

func med(name, unit string) metric { return metric{name: name, unit: unit, series: name, q: 0.5} }

// endToEnd are the metrics of the untraced pass. They must match
// BENCHMARK.json's end_to_end list; main_test.go checks that they do.
// ops_failed_share of the issue is carried by the result line's
// failed/attempted instead: the contract wants metrics that are never 0.
// Its job_cached_ms is per-layer (server.job_cached_ms) for the reason its
// query p99 is: between two back-to-back sets of runs of the same code it
// moved 25-39 % when every other metric moved 8-20 %.
var endToEnd = []metric{
	med("setup_s", "s"),
	med("cluster_mu_s", "s"),
	med("cluster_auto_s", "s"),
	med("cli_cluster_s", "s"),
	med("cli_peak_rss_mb", "MB"),
	med("query_p50_us", "us"),
	med("query_p90_us", "us"),
	med("stream_run_s", "s"),
}

// perLayer are the metrics of the traced pass, in layer order. They must
// match BENCHMARK.json's per_layer list.
var perLayer = []metric{
	med("geom.scan_ns_per_dist", "ns"),
	med("geom.scan_dists", "count"),

	med("rtree.insert_ns_per_pt", "ns"),
	med("rtree.bulkload_ns_per_pt", "ns"),
	med("rtree.sphere_ns_per_query", "ns"),
	med("rtree.sphere_distcalcs_per_query", "count"),
	med("rtree.height", "count"),

	med("kdtree.build_ns_per_pt", "ns"),
	med("kdtree.sphere_ns_per_query", "ns"),

	med("unionfind.union_ns_per_op", "ns"),

	med("mc.build_s", "s"),
	med("mc.reachable_s", "s"),
	med("mc.num_mcs", "count"),
	med("mc.heap_mb", "MB"),
	med("mc.eps_query_ns", "ns"),
	med("mc.eps_query_distcalcs", "count"),
	med("mc.eps_query_trees", "count"),

	med("core.run_s", "s"),
	med("core.step_tree_s", "s"),
	med("core.step_reachable_s", "s"),
	med("core.step_cluster_s", "s"),
	med("core.step_post_s", "s"),
	med("core.queries", "count"),
	med("core.queries_saved_pct", "%"),
	med("core.distcalcs", "count"),

	med("cell.run_w1_s", "s"),
	med("cell.step_build_s", "s"),
	med("cell.step_adjacency_s", "s"),
	med("cell.step_mark_s", "s"),
	med("cell.step_connect_s", "s"),
	med("cell.step_assign_s", "s"),
	med("cell.cells", "count"),
	med("cell.dense_cells", "count"),
	med("cell.distcalcs", "count"),
	med("cell.decide_us", "us"),

	med("shared.run_w1_s", "s"),
	med("shared.run_wp_s", "s"),
	med("shared.run_wp_hung", "count"),
	med("cell.run_wp_s", "s"),
	med("cell.run_wp_hung", "count"),
	med("dist.wall_s", "s"),
	med("dist.wall_hung", "count"),

	med("dist.serial_total_s", "s"),
	med("dist.phase_partition_s", "s"),
	med("dist.phase_halo_s", "s"),
	med("dist.phase_local_s", "s"),
	med("dist.phase_merge_s", "s"),
	med("dist.halo_points", "count"),
	med("dist.comm_bytes", "bytes"),
	med("dist.comm_msgs", "count"),
	med("dist.merge_bytes", "bytes"),

	med("stream.add_ns_per_pt", "ns"),
	med("stream.snapshot_ms", "ms"),
	med("stream.live_points", "count"),
	med("stream.evicted_points", "count"),

	med("server.put_ms", "ms"),
	med("server.index_build_ms", "ms"),
	med("server.ping_us", "us"),
	med("server.job_cold_ms", "ms"),
	med("server.job_overhead_ms", "ms"),
	med("server.job_cached_ms", "ms"),
	med("server.result_bytes", "bytes"),
	med("server.query_hits_mean", "count"),
	{name: "server.query_p99_us", unit: "us", series: "_server_query_us", q: 0.99},
	{name: "server.query_p999_us", unit: "us", series: "_server_query_us", q: 0.999},

	med("data.read_csv_ms", "ms"),
	med("data.read_bin_ms", "ms"),
	med("data.csv_bytes", "bytes"),
	med("cli.startup_ms", "ms"),
	med("cli.io_overhead_ms", "ms"),

	med("harness.gen_s", "s"),
	med("harness.trace_overhead_pct", "%"),
}

package main

// endToEndMetrics lists the metrics an untraced run prints, in the order of
// BENCHMARK.json's end_to_end list. Every workload prints all of them; a
// unit is the workload's fixed piece of work (a run, a grid, a served job,
// a scheduler run):
//
//   - setup_s: median time of one set-up before the work starts;
//   - router_cycles_per_s: routers × simulated cycles of every unit, over
//     the units' summed wall time;
//   - cpu_s: median process CPU seconds of one unit;
//   - job_s_p50: median wall time of one unit, from its start to its
//     digested result (for serve_sweeps: submit to a verified CSV);
//   - peak_rss_mb: the process's peak resident set, one workload per
//     process.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"cpu_s", "s"},
	{"job_s_p50", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics lists every per-layer metric a traced run prints, in the
// order of BENCHMARK.json's per_layer list (a self-test keeps the two
// equal). Every traced run prints all of them; a metric of a layer the
// workload does not reach, or cannot be observed from outside the program
// on it, prints 0 (README.md lists which workload measures which).
var perLayerMetrics = []struct{ name, unit string }{
	{"routing.nexthop_calls", "count"},
	{"routing.calls_per_delivered_packet", "calls/packet"},
	{"routing.ns_per_call", "ns"},
	{"routing.self_s", "s"},
	{"traffic.dest_calls", "count"},
	{"traffic.self_s", "s"},
	{"sim.router_steps", "count"},
	{"sim.step_share", "ratio"},
	{"sim.engine_self_s", "s"},
	{"sim.ns_per_router_step", "ns"},
	{"sim.ns_per_router_cycle", "ns"},
	{"sim.ns_per_delivered_phit", "ns"},
	{"sim.alloc_bytes_per_cycle", "B"},
	{"sim.build_ms", "ms"},
	{"sim.parallel_speedup", "ratio"},
	{"stats.result_ms", "ms"},
	{"experiments.build_ms", "ms"},
	{"sweep.point_ms_p50", "ms"},
	{"sweep.point_ms_p90", "ms"},
	{"sweep.pool_busy_ratio", "ratio"},
	{"sweep.gap_s", "s"},
	{"sweep.checkpoint_bytes", "B"},
	{"sweep.points_leased", "count"},
	{"sweep.lease_waste_ratio", "ratio"},
	{"report.csv_bytes", "B"},
	{"serve.submit_new_ms_p50", "ms"},
	{"serve.submit_hit_ms_p50", "ms"},
	{"serve.submit_hit_ms_p99", "ms"},
	{"serve.csv_ms_p50", "ms"},
	{"serve.csv_ms_p99", "ms"},
	{"serve.records_ms_p50", "ms"},
	{"serve.records_ms_p99", "ms"},
	{"serve.status_ms_p50", "ms"},
	{"serve.status_ms_p99", "ms"},
	{"serve.lease_ms_p50", "ms"},
	{"serve.complete_ms_p50", "ms"},
	{"serve.read_ms_p50", "ms"},
	{"serve.read_ms_p99", "ms"},
	{"serve.lease_empty", "count"},
	{"serve.worker_idle_s", "s"},
	{"serve.idle_share_of_job", "ratio"},
	{"scheduler.generate_ms", "ms"},
	{"scheduler.jobs_completed", "count"},
	{"scheduler.ran_cycles", "count"},
	{"scheduler.peak_queue", "count"},
	{"trace.overhead", "ratio"},
}

package main

import "repro/internal/experiments"

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are printed with -trace 0, in BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_ticks_per_s", "1/s"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"cells_per_s", "1/s"},
	{"heap_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are printed with -trace 1. A workload that does not exercise a
// layer (HTTP in the simulation workloads, a paper experiment outside
// paper-all) reports 0 for it.
var perLayer = append([]metricDef{
	{"thermal.step_ns", "ns"},
	{"thermal.nodes", "count"},
	{"platform.step_ns", "ns"},
	{"platform.self_ns", "ns"},
	{"sched.tick_ns", "ns"},
	{"sched.migrations", "count"},
	{"workload.step_ns", "ns"},
	{"policy.tick_ns", "ns"},
	{"reliability.push_ns", "ns"},
	{"reliability.cycles", "count"},
	{"sim.runs", "count"},
	{"sim.ticks", "count"},
	{"sim.ns_per_tick", "ns"},
	{"sim.alloc_bytes_per_tick", "B"},
	{"http.submit_ms_p50", "ms"},
	{"http.submit_ms_p90", "ms"},
	{"http.leaderboard_ms_p50", "ms"},
	{"campaign.plan_ms", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.cell_exec_ms_p50", "ms"},
	{"service.cell_exec_ms_p90", "ms"},
	{"service.worker_busy_frac", "frac"},
	{"service.cells_failed", "count"},
	{"service.jobs_rejected", "count"},
	{"durable.append_ms_p50", "ms"},
	{"durable.append_ms_p90", "ms"},
	{"durable.records", "count"},
	{"durable.bytes", "B"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_share_pct", "%"},
	{"failed_frac", "frac"},
	{"job_latency.samples", "count"},
}, experimentMetrics()...)

// experimentMetrics is one experiments.<id>_s per paper experiment.
func experimentMetrics() []metricDef {
	var defs []metricDef
	for _, id := range experiments.ExperimentNames() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return defs
}

package main

import "math"

// metricDef names one reported metric. The tables below are the code's
// side of BENCHMARK.json: a test checks that the two list the same
// names, units and directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports for every workload.
// "op" is the workload's unit of user-visible work (README.md, Workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports for every workload. A
// layer the workload does not exercise reads 0 (README.md, Per-layer
// metrics, names the source of each).
var perLayer = []metricDef{
	{"sim.event_ns", "ns", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.drive_events_per_s", "1/s", "higher"},
	{"sim.heap_depth_max", "count", "lower"},
	{"sim.shards2_wall_ratio", "ratio", "lower"},
	{"machine.burst_cycle_ns", "ns", "lower"},
	{"charm.superstep_us", "us", "lower"},
	{"charm.superstep_allocs", "count", "lower"},
	{"charm.superstep_kb", "kB", "lower"},
	{"charm.messages_per_op", "count", "lower"},
	{"charm.pooled_ratio", "ratio", "higher"},
	{"charm.migrations_per_op", "count", "lower"},
	{"charm.lb_steps_per_op", "count", "lower"},
	{"charm.lb_rounds_per_op", "count", "lower"},
	{"charm.lb_plan_s_per_op", "s", "lower"},
	{"xnet.send_intra_ns", "ns", "lower"},
	{"xnet.send_inter_ns", "ns", "lower"},
	{"xnet.send_lossy_ns", "ns", "lower"},
	{"xnet.retransmits_per_op", "count", "lower"},
	{"xnet.retransmit_ratio", "ratio", "lower"},
	{"lb.plan_ms.RefineLB.32c2k", "ms", "lower"},
	{"lb.plan_ms.RefineLB.256c20k", "ms", "lower"},
	{"lb.plan_ms.GreedyLB.256c20k", "ms", "lower"},
	{"lb.plan_ms.RefineLB.1024c100k", "ms", "lower"},
	{"lb.plan_ms.DiffusionLB-perPE.256c20k", "ms", "lower"},
	{"apps.wave_step_us", "us", "lower"},
	{"apps.jacobi_step_us", "us", "lower"},
	{"experiment.build_ms", "ms", "lower"},
	{"experiment.spec_hash_us", "us", "lower"},
	{"experiment.spec_validate_us", "us", "lower"},
	{"runner.worker_util", "ratio", "higher"},
	{"service.submit_ms", "ms", "lower"},
	{"service.artifact_get_ms", "ms", "lower"},
	{"service.cache_lookup_us", "us", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.execute_ms", "ms", "lower"},
	{"service.job_computed_s", "s", "lower"},
	{"service.job_computed_s.p90", "s", "lower"},
	{"service.job_hit_ms.p99", "ms", "lower"},
	{"service.store_put_us", "us", "lower"},
	{"service.store_get_us", "us", "lower"},
	{"service.hit_ratio", "ratio", "higher"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"bench.late_frac", "ratio", "lower"},
	{"bench.late_max_ms", "ms", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project picks the table's metrics out of vals, 0 for any the run did
// not measure (JSON has no NaN, and a ratio over an empty base is
// undefined).
func project(table []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(table))
	for _, m := range table {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out
}

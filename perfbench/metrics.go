package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// metricDef names one reported metric. The order of the tables below is
// the order of every printed line and of the JSON result.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"inv_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"sim_p50_ms", "ms", "lower"},
	{"sim_tail_ms", "ms", "lower"},
	{"invoke_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"allocs_per_inv", "count", "lower"},
	{"alloc_kb_per_inv", "KB", "lower"},
	{"retained_kb_per_inv", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics: counts and host-time shares per
// module of the program.
var perLayer = []metricDef{
	{"sim.events_per_inv", "count", "lower"},
	{"sim.pending_peak", "count", "lower"},
	{"sim.pending_mean", "count", "lower"},
	{"sim.step_ns", "ns", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"network.resolves_per_inv", "count", "lower"},
	{"network.flows_per_inv", "count", "lower"},
	{"network.msgs_per_inv", "count", "lower"},
	{"network.mb_per_inv", "MB", "lower"},
	{"network.storage_mb_per_inv", "MB", "lower"},
	{"network.active_flows_peak", "count", "lower"},
	{"network.us_per_resolve", "us", "lower"},
	{"network.self_pct", "%", "lower"},
	{"cluster.cold_starts_per_inv", "count", "lower"},
	{"cluster.warm_ratio", "ratio", "higher"},
	{"cluster.queued_waits_per_inv", "count", "lower"},
	{"cluster.shed", "count", "lower"},
	{"cluster.self_pct", "%", "lower"},
	{"store.local_gets_per_inv", "count", "higher"},
	{"store.remote_gets_per_inv", "count", "lower"},
	{"store.local_byte_ratio", "ratio", "higher"},
	{"store.self_pct", "%", "lower"},
	{"scheduler.deploy_ms", "ms", "lower"},
	{"scheduler.localized_frac", "ratio", "higher"},
	{"engine.invoke_us", "us", "lower"},
	{"engine.retries", "count", "lower"},
	{"engine.self_pct", "%", "lower"},
	{"journal.appends_per_inv", "count", "lower"},
	{"journal.records_per_sync", "count", "higher"},
	{"journal.dup_drops", "count", "lower"},
	{"journal.self_pct", "%", "lower"},
	{"admission.admitted", "count", "higher"},
	{"admission.rejected", "count", "lower"},
	{"admission.live_end", "count", "lower"},
	{"admission.self_pct", "%", "lower"},
	{"obs.events_per_inv", "count", "lower"},
	{"obs.metrics_kb", "KB", "lower"},
	{"obs.self_pct", "%", "lower"},
	{"gateway.read_idle_ms", "ms", "lower"},
	{"gateway.self_pct", "%", "lower"},
	{"net_http.self_pct", "%", "lower"},
	{"runtime.gc_pct", "%", "lower"},
	{"runtime.malloc_pct", "%", "lower"},
	{"runtime.gc_cycles_per_kinv", "count", "lower"},
	{"client.invoke_tail_ms", "ms", "lower"},
	{"client.read_tail_ms", "ms", "lower"},
	{"client.read_lateness_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.profile_samples", "count", "higher"},
	{"trace.spans", "count", "higher"},
	{"sim_timeout_frac", "ratio", "lower"},
	{"error_rate", "ratio", "lower"},
}

// value is one measured metric with the facts that qualify it.
type value struct {
	V    float64
	Note string // sample count, tail percentile, or why it is not measured
	NA   bool   // the workload does not exercise what the metric measures
}

// report is a result: metric values keyed by name, printed in the order
// of a definition table.
type report map[string]value

// printLines writes one diffable line per metric, in table order.
func printLines(buf *bytes.Buffer, defs []metricDef, r report) {
	for _, d := range defs {
		v := r[d.Name]
		val := strconv.FormatFloat(v.V, 'g', 8, 64)
		if v.NA {
			val = "n/a"
		}
		fmt.Fprintf(buf, "metric %-30s %14s %-6s %s\n", d.Name, val, d.Unit, v.Note)
	}
}

// resultJSON renders the final result line with metrics in table order.
func resultJSON(correct bool, attempted, failed int, defs []metricDef, r report) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteString(", ")
		}
		v := r[d.Name].V
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

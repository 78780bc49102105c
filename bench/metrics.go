package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef is one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from its untraced run. An operation is one
// churn round through to the slowest subscriber, or one complete
// discovery run. sim_ms_per_op is simulated time; the rest is host time.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_wall_ms_p50", "ms", lower, 0.25},
	{"events_per_s", "events/s", higher, 0.25},
	{"alloc_mb_per_op", "MB/op", lower, 0.10},
	{"sim_ms_per_op", "sim-ms", lower, 0.10},
}

// perLayer are the traced run's metrics, one layer (package) each. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// The operation latency's tail, with the sample count it rests on.
	{Name: "op_wall_n", Unit: "count", Better: higher},
	{Name: "op_wall_ms_p95", Unit: "ms", Better: lower},
	{Name: "op_wall_tail_pct", Unit: "%", Better: higher},
	{Name: "op_wall_ms_tail", Unit: "ms", Better: lower},
	{Name: "failed_share", Unit: "ratio", Better: lower},
	{Name: "changes_per_s", Unit: "toggles/s", Better: higher},
	{Name: "deliveries_per_s", Unit: "batches/s", Better: higher},
	{Name: "sim_converge_ms_p50", Unit: "sim-ms", Better: lower},
	{Name: "sim_discovery_ms_serial_packet", Unit: "sim-ms", Better: lower},
	{Name: "sim_discovery_ms_serial_device", Unit: "sim-ms", Better: lower},
	{Name: "sim_discovery_ms_parallel", Unit: "sim-ms", Better: lower},

	{Name: "topo.build_ms", Unit: "ms", Better: lower},
	{Name: "fabric.build_ms", Unit: "ms", Better: lower},
	{Name: "core.bootstrap_ms", Unit: "ms", Better: lower},
	{Name: "rib.sync_build_ms", Unit: "ms", Better: lower},

	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.events_per_op", Unit: "count", Better: lower},
	{Name: "sim.max_pending", Unit: "count", Better: lower},
	{Name: "sim.run_self_share", Unit: "ratio", Better: lower},
	{Name: "sim.shard.wall_ratio_r2", Unit: "ratio", Better: higher},
	{Name: "sim.shard.rounds", Unit: "count", Better: lower},
	{Name: "sim.shard.stalls", Unit: "count", Better: lower},
	{Name: "sim.shard.cross_msgs", Unit: "count", Better: lower},

	{Name: "fabric.packets_tx_per_op", Unit: "count", Better: lower},
	{Name: "fabric.drops_per_op", Unit: "count", Better: lower},
	{Name: "fabric.events_per_packet", Unit: "count", Better: lower},

	{Name: "core.runs_per_round", Unit: "count", Better: lower},
	{Name: "core.packets_per_run", Unit: "count", Better: lower},
	{Name: "core.timeouts_per_op", Unit: "count", Better: lower},
	{Name: "core.retries_per_op", Unit: "count", Better: lower},
	{Name: "core.fm_us_per_pkt", Unit: "sim-us", Better: lower},
	{Name: "core.assim.coalesce_ratio", Unit: "ratio", Better: higher},
	{Name: "core.assim.batch_size_p50", Unit: "count", Better: higher},
	{Name: "core.clone_us", Unit: "us", Better: lower},
	{Name: "core.diff_us", Unit: "us", Better: lower},
	{Name: "core.fingerprint_us", Unit: "us", Better: lower},
	{Name: "core.pathto_us", Unit: "us", Better: lower},

	{Name: "fib.derive_ms", Unit: "ms", Better: lower},
	{Name: "fib.routes", Unit: "count", Better: higher},
	{Name: "fib.unrouted", Unit: "count", Better: lower},

	{Name: "rib.install_ms_p50", Unit: "ms", Better: lower},
	{Name: "rib.install_ms_p95", Unit: "ms", Better: lower},
	{Name: "rib.install_share", Unit: "ratio", Better: lower},
	{Name: "rib.installs_per_round", Unit: "count", Better: lower},
	{Name: "rib.updates_per_install", Unit: "count", Better: lower},
	{Name: "rib.leaves", Unit: "count", Better: lower},
	{Name: "rib.canonical_us", Unit: "us", Better: lower},
	{Name: "rib.deliver_ms_p50", Unit: "ms", Better: lower},
	{Name: "rib.deliver_ms_p95", Unit: "ms", Better: lower},
	{Name: "rib.apply_us_p50", Unit: "us", Better: lower},
	{Name: "rib.deliveries_per_round", Unit: "count", Better: higher},
	{Name: "rib.resyncs", Unit: "count", Better: lower},
	{Name: "rib.overflows", Unit: "count", Better: lower},
	{Name: "rib.staleness_p99_gens", Unit: "count", Better: lower},
	{Name: "rib.http_deliver_ms_p50", Unit: "ms", Better: lower},
	{Name: "rib.http_bytes_per_gen", Unit: "bytes", Better: lower},
	{Name: "rib.http_ttfb_ms", Unit: "ms", Better: lower},
	{Name: "rib.snapshot_get_ms", Unit: "ms", Better: lower},

	{Name: "obs.scrape_us", Unit: "us", Better: lower},
	{Name: "obs.prom_us", Unit: "us", Better: lower},
	{Name: "obs.prom_bytes", Unit: "bytes", Better: lower},
	{Name: "telemetry.snapshot_us", Unit: "us", Better: lower},
	{Name: "telemetry.series", Unit: "count", Better: lower},

	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "runtime.num_gc", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// reportedMetric is one metric in a run's result line.
type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

// report turns an outcome into the result line: every metric of the
// run's kind, by name, with its unit. An end-to-end metric that is
// missing, zero or not finite is a defect of the benchmark and makes the
// run incorrect; a per-layer metric the workload does not exercise is 0.
func report(out *outcome, trace bool) resultLine {
	line := resultLine{
		Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]reportedMetric{},
	}
	for _, d := range metricSet(trace) {
		v, ok := out.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && (!ok || v == 0)) {
			out.problem("metric %s is %v", d.Name, v)
			line.Correct = false
			v = 0
		}
		line.Metrics[d.Name] = reportedMetric{Value: v, Unit: d.Unit}
	}
	return line
}

func (l resultLine) String() string {
	b, err := json.Marshal(l)
	if err != nil {
		panic(err) // plain data; report removed every non-finite value
	}
	return string(b)
}

// printMetrics lists a result's metrics by name with their units, in the
// contract's order.
func printMetrics(line resultLine, trace bool) {
	for _, d := range metricSet(trace) {
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
}

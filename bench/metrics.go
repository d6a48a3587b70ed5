package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDecl declares one metric of the benchmark: BENCHMARK.json carries
// the same list, and TestBenchmarkJSON keeps the two from drifting.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the detector sees, on every workload. A later
// change may worsen a metric's median by at most its bound. A metric has one
// bound for all workloads, so the noisiest workload sets it: on a quiet box
// every same-code spread stays under 8 %, but tenant_fanout (4 032 nodes, the
// largest working set) moved 12 % between two half hours of one session and
// spread 12–15 % within the noisier one (README, "Baseline"). The timing
// bounds clear that, so that a change is never refused for the box's noise.
// CPU per interval is not here but under perLayer: on the open-loop workloads
// it reads 25 % higher whenever the kernel happens to spread the process's
// threads over both processors (README, "Why CPU per interval is not gated").
var endToEnd = []metricDecl{
	{"intervals_per_sec", "1/s", "higher", 0.20},
	{"detect_latency_p50_ms", "ms", "lower", 0.20},
	{"detect_latency_p90_ms", "ms", "lower", 0.25},
	{"on_time_detection_share", "ratio", "higher", 0.02},
	{"reports_per_interval", "count", "lower", 0.01},
	{"alloc_bytes_per_interval", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured in the traced run; layer = package name. A metric
// whose layer is not on the workload's path reads 0 there.
var perLayer = []metricDecl{
	{"vclock.less_ns", "ns", "lower", 0},
	{"vclock.compare_less_ns", "ns", "lower", 0},
	{"vclock.merge_max_ns", "ns", "lower", 0},
	{"vclock.append_delta_ns", "ns", "lower", 0},
	{"vclock.consume_delta_ns", "ns", "lower", 0},
	{"vclock.delta_bytes_per_clock", "B", "lower", 0},
	{"interval.overlap_ns", "ns", "lower", 0},
	{"interval.aggregate_flat_ns", "ns", "lower", 0},
	{"interval.queue_cycle_ns", "ns", "lower", 0},
	{"core.ref_intervals_per_sec", "1/s", "higher", 0},
	{"core.oninterval_ns_p50", "ns", "lower", 0},
	{"core.oninterval_ns_p99", "ns", "lower", 0},
	{"core.cmps_per_interval", "count", "lower", 0},
	{"core.filtered_per_cmp", "ratio", "higher", 0},
	{"core.memo_hits_per_cmp", "ratio", "higher", 0},
	{"core.eliminated_per_interval", "count", "lower", 0},
	{"core.pruned_per_interval", "count", "lower", 0},
	{"core.reports_per_interval", "count", "lower", 0},
	{"core.queue_high_water", "count", "lower", 0},
	{"core.alloc_bytes_per_interval", "B", "lower", 0},
	{"livenet.new_ms", "ms", "lower", 0},
	{"livenet.close_ms", "ms", "lower", 0},
	{"livenet.observe_ns_p50", "ns", "lower", 0},
	{"livenet.observe_ns_p99", "ns", "lower", 0},
	{"livenet.drain_tail_ms", "ms", "lower", 0},
	{"livenet.msgs_per_interval", "count", "lower", 0},
	{"livenet.reports_per_msg", "count", "higher", 0},
	{"livenet.drain_batch_mean", "count", "higher", 0},
	{"livenet.batch_flushes_per_interval", "count", "lower", 0},
	{"livenet.mailbox_high_water", "count", "lower", 0},
	{"livenet.reseq_high_water", "count", "lower", 0},
	{"livenet.queue_high_water", "count", "lower", 0},
	{"livenet.peak_goroutines", "count", "lower", 0},
	{"livenet.workers_busy_share", "ratio", "lower", 0},
	{"livenet.wheel_lag_ms_max", "ms", "lower", 0},
	{"livenet.runq_depth_max", "count", "lower", 0},
	{"livenet.detect_fanout_share", "ratio", "lower", 0},
	{"livenet.live_cmps_per_interval", "count", "lower", 0},
	{"livenet.hist_latency_p50_ms", "ms", "lower", 0},
	{"livenet.plane_overhead_ratio", "ratio", "lower", 0},
	{"wire.encode_v2_ns", "ns", "lower", 0},
	{"wire.decode_v2_ns", "ns", "lower", 0},
	{"wire.bytes_per_report", "B", "lower", 0},
	{"wire.batch_encode_ns_per_report", "ns", "lower", 0},
	{"wire.batch_decode_ns_per_report", "ns", "lower", 0},
	{"wire.encode_allocs_per_report", "count", "lower", 0},
	{"tcptransport.loopback_frames_per_sec", "1/s", "higher", 0},
	{"tcptransport.loopback_rtt_p50_us", "us", "lower", 0},
	{"tcptransport.wire_bytes_per_interval", "B", "lower", 0},
	{"tcptransport.connections", "count", "lower", 0},
	{"tcptransport.frames_per_flush", "count", "higher", 0},
	{"tcptransport.bytes_per_frame", "B", "lower", 0},
	{"tcptransport.backlog_dropped", "count", "lower", 0},
	{"tcptransport.redelivered", "count", "lower", 0},
	{"tcptransport.corrupt_frames", "count", "lower", 0},
	{"tcptransport.redials", "count", "lower", 0},
	{"tenantplane.register_ms_per_tenant", "ms", "lower", 0},
	{"tenantplane.bytes_per_tenant", "B", "lower", 0},
	{"tenantplane.goroutines", "count", "lower", 0},
	{"tenantplane.close_ms", "ms", "lower", 0},
	{"tenantplane.tenant_ips_min_over_mean", "ratio", "higher", 0},
	{"repair.recovery_ms", "ms", "lower", 0},
	{"repair.suspect_ms_p50", "ms", "lower", 0},
	{"repair.reattach_ms_p50", "ms", "lower", 0},
	{"repair.spurious_suspicions", "count", "lower", 0},
	{"repair.partition_giveups", "count", "lower", 0},
	{"repair.stalled_rounds", "count", "lower", 0},
	{"obsv.trace_overhead_pct", "%", "lower", 0},
	{"obsv.events_per_interval", "count", "lower", 0},
	{"trace.leaf_admit_ms_p50", "ms", "lower", 0},
	{"trace.link_transit_ms_p50", "ms", "lower", 0},
	{"trace.node_wait_ms_p50", "ms", "lower", 0},
	{"trace.level_gap_ms.feed", "ms", "lower", 0},
	{"trace.level_gap_ms.L0", "ms", "lower", 0},
	{"trace.level_gap_ms.L1", "ms", "lower", 0},
	{"trace.level_gap_ms.L2", "ms", "lower", 0},
	{"trace.level_gap_ms.L3", "ms", "lower", 0},
	{"trace.level_gap_ms.L4", "ms", "lower", 0},
	{"trace.level_gap_ms.L5", "ms", "lower", 0},
	{"trace.reconcile_err_pct", "%", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	{"workload.heap_mb", "MB", "lower", 0},
	{"harness.cpu_us_per_interval", "us", "lower", 0},
	{"harness.generator_late_ms_max", "ms", "lower", 0},
	{"harness.latency_p99_ms", "ms", "lower", 0},
	{"harness.latency_max_ms", "ms", "lower", 0},
	{"harness.calibration_score", "1/s", "higher", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric's name to what one run measured.
type metrics map[string]metricValue

func (m metrics) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// only returns exactly the declared metrics, in m's values; a declared
// metric the run did not measure reads 0 (its layer was not on the path).
func (m metrics) only(decls []metricDecl) metrics {
	out := make(metrics, len(decls))
	for _, d := range decls {
		out.set(d.Name, d.Unit, m[d.Name].Value)
	}
	return out
}

// result is one run's outcome: the line the driver parses, plus the record
// written beside the trace files.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// printLine writes the result as the single JSON object the contract asks
// for as the last line of standard output.
func (r result) printLine(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printTable writes every metric by name with its unit, for people.
func (m metrics) printTable(w io.Writer, decls []metricDecl) {
	names := make([]string, 0, len(m))
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		names = append(names, d.Name)
	}
	var extra []string
	for name := range m {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range append(names, extra...) {
		v := m[name]
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", name, v.Value, v.Unit)
	}
}

// Package bench is the wlmbench harness: one benchmark for the live decision
// path (the real wlmd binary over the wire protocol), the offline what-if
// path (trace decode → compress → replay fan-out → divergence) and the
// simulator (the paper tables). It defines the named workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics a separate traced run produces by timing calls into each layer's
// public functions. README.md in this directory records why each workload
// and metric exists; BENCHMARK.json at the module root is generated from the
// tables in this file (SpecJSON) and a test keeps the two identical.
package bench

import (
	"encoding/json"
	"fmt"
)

// Workload names. They are fixed: later changes cite them.
const (
	LiveCost  = "live-cost"
	LiveSQL   = "live-sql"
	LiveRTT   = "live-rtt"
	WhatIf    = "whatif"
	SimTables = "sim-tables"
)

// WorkloadSpec names one workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists every workload in run order.
var Workloads = []WorkloadSpec{
	{LiveCost, "wlmd over the wire, 1 conn x depth 4 x batch 256 of cost admits and dones: the per-decision fast path (codec, rt gates, recorder, SLO); bypasses sqlmini, learn and the plan cache"},
	{LiveSQL, "wlmd over the wire, 1 conn x depth 4 x batch 64, SQL and fingerprint admits Zipf(1.1) over 16384 shapes (4x the plan cache) plus an HTTP operator: prediction path with hits, misses, retrains"},
	{LiveRTT, "wlmd over the wire, 1 conn, depth 1, batch 1, alternating admit and done: the round trip one caller sees; sockets, framing and wake-ups dominate, per-decision work is a few percent"},
	{WhatIf, "offline, in process: stream-decode synthetic traces, compress 16:1, one full replay, 32 engine what-ifs on the compressed trace, divergence; k-means dominates, replay is engine-direct"},
	{SimTables, "offline, in process: managed rows of paper tables 2 and 4, the autonomic MAPE run and table 1; the only workload driving Manager, scheduling, execctl, governor over engine/sim"},
}

// MetricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metric names. Every workload reports every one of them; what
// one operation is depends on the workload (README.md, "End-to-end
// metrics").
const (
	MSetup   = "setup_s"
	MOps     = "ops_per_s"
	MLatency = "latency_p50_us"
	MCPU     = "cpu_us_per_op"
	MRSS     = "rss_mb"
)

// EndToEnd are the metrics a user of the system sees, measured with tracing
// off. Every bound is the widest the acceptance driver admits: on the shared
// host this was written on, the run-to-run quartile spread of the timing
// metrics is 3-8% in a quiet minute and 10-18% in a busy one, and a bound
// has to clear the spread to decide anything.
var EndToEnd = []MetricSpec{
	{MSetup, "s", "lower", 0.25},
	{MOps, "1/s", "higher", 0.25},
	{MLatency, "us", "lower", 0.25},
	{MCPU, "us", "lower", 0.25},
	{MRSS, "MB", "lower", 0.25},
}

// PerLayer are the traced run's metrics, prefixed by the module they
// measure. A workload reports 0 for a layer that is not on its path.
var PerLayer = []MetricSpec{
	{Name: "wire.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.dispatch_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.dispatch_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_echo_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_echo_b256_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.proto_errors", Unit: "count", Better: "lower"},
	{Name: "wire.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "rt.admit_done_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.reject_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.reject_full_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.admitted", Unit: "count", Better: "higher"},
	{Name: "rt.rejected_cost", Unit: "count", Better: "higher"},
	{Name: "rt.rejected_full", Unit: "count", Better: "higher"},
	{Name: "rt.released", Unit: "count", Better: "higher"},
	{Name: "rt.admit_share", Unit: "ratio", Better: "higher"},
	{Name: "rt.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "rt.policy_apply_us", Unit: "us", Better: "lower"},
	{Name: "sqlmini.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlmini.plan_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlmini.plan_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlmini.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sqlmini.cache_entries", Unit: "count", Better: "higher"},
	{Name: "learn.knn_predict_ns", Unit: "ns", Better: "lower"},
	{Name: "learn.knn_train_us", Unit: "us", Better: "lower"},
	{Name: "learn.kmeans_s", Unit: "s", Better: "lower"},
	{Name: "admission.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.retrains", Unit: "count", Better: "lower"},
	{Name: "admission.retrains_per_kobs", Unit: "ratio", Better: "lower"},
	{Name: "obsv.record_ns", Unit: "ns", Better: "lower"},
	{Name: "obsv.overwritten_share", Unit: "ratio", Better: "lower"},
	{Name: "slo.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "slo.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "rthttp.metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "rthttp.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "rthttp.policy_post_ms", Unit: "ms", Better: "lower"},
	{Name: "rthttp.admit_done_us", Unit: "us", Better: "lower"},
	{Name: "trace.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "trace.compress_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.compress_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.replay_full_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.whatif_replays_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.replay_many_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "trace.diverge_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.divergence", Unit: "TV", Better: "lower"},
	{Name: "trace.allocs_per_replay", Unit: "count", Better: "lower"},
	{Name: "trace.representatives", Unit: "count", Better: "lower"},
	{Name: "engine.replay_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "sim.table2_s", Unit: "s", Better: "lower"},
	{Name: "sim.table4_s", Unit: "s", Better: "lower"},
	{Name: "sim.autonomic_s", Unit: "s", Better: "lower"},
	{Name: "sim.allocs_per_scenario", Unit: "count", Better: "lower"},
	{Name: "gen.cpu_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "gen.client_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "span.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// RunSeconds is the measured window of one driver run.
const RunSeconds = 10

// Command is how the benchmark is started from the module root.
var Command = []string{"go", "run", "./cmd/wlmbench"}

// Paths are the directories that hold the benchmark and nothing else.
var Paths = []string{"cmd/wlmbench", "internal/bench"}

// IsWorkload reports whether name is one of the five workloads.
func IsWorkload(name string) bool {
	for _, w := range Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// FindMetric looks a metric up by name in both tables.
func FindMetric(name string) (MetricSpec, bool) {
	for _, tbl := range [][]MetricSpec{EndToEnd, PerLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricSpec{}, false
}

// SpecJSON renders BENCHMARK.json from the tables above. MetricSpec's bound
// is omitted when zero, which is exactly the per-layer shape.
func SpecJSON() []byte {
	out, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []WorkloadSpec `json:"workloads"`
		EndToEnd   []MetricSpec   `json:"end_to_end"`
		PerLayer   []MetricSpec   `json:"per_layer"`
	}{Command, Paths, RunSeconds, Workloads, EndToEnd, PerLayer}, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: spec does not marshal: %v", err)) // static tables: a bug, not input
	}
	return append(out, '\n')
}

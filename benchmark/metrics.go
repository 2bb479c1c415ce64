package main

import "fmt"

// The metric tables: every metric the benchmark reports, with its unit
// and which way is better. BENCHMARK.json publishes the same lists (a
// test keeps the two in step) and adds the regression bound to each
// end-to-end metric; README.md's glossary says what each one means.

// EndToEndMetrics are what a user of the system would see, measured with
// tracing off.
var EndToEndMetrics = []SpecMetric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "insync_sessions_per_core", Unit: "1/core", Better: "higher"},
	{Name: "insync_session_s_frac", Unit: "frac", Better: "higher"},
	{Name: "playout_ok_frac", Unit: "frac", Better: "higher"},
	{Name: "converge_s_p50", Unit: "s", Better: "lower"},
	{Name: "hub_peak_rss_mb", Unit: "MB", Better: "lower"},
}

// PerLayerMetrics are the single-layer numbers, <module>.<name>.
var PerLayerMetrics = []SpecMetric{
	{Name: "hub.cpu_ms_per_session_s", Unit: "ms", Better: "lower"},
	{Name: "hub.cpu_sys_frac", Unit: "frac", Better: "lower"},
	{Name: "hub.dispatch_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "hub.tick_ns_per_session", Unit: "ns", Better: "lower"},
	{Name: "hub.idle_path_ms_per_session_s", Unit: "ms", Better: "lower"},
	{Name: "hub.wakeup_ms_per_session_s", Unit: "ms", Better: "lower"},
	{Name: "hub.residual_ms_per_session_s", Unit: "ms", Better: "lower"},
	{Name: "hub.media_fps_min", Unit: "1/s", Better: "higher"},
	{Name: "hub.media_late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hub.media_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "hub.dispatch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "hub.shed_frac", Unit: "frac", Better: "lower"},
	{Name: "hub.socket_drops", Unit: "count", Better: "lower"},
	{Name: "hub.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "hub.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "hub.admit_ms_per_session", Unit: "ms", Better: "lower"},
	{Name: "transport.recv_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_media_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.send_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.wire_bytes_per_session_s", Unit: "B", Better: "lower"},
	{Name: "rtp.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rtp.encode_media_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rtp.seq_anomalies", Unit: "count", Better: "lower"},
	{Name: "jitterbuf.reorder_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "jitterbuf.held_frac", Unit: "frac", Better: "lower"},
	{Name: "jitterbuf.flushed", Unit: "count", Better: "lower"},
	{Name: "codec.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "codec.conceal_frames", Unit: "count", Better: "lower"},
	{Name: "estimator.add_chat_ns_per_session_s", Unit: "ns", Better: "lower"},
	{Name: "estimator.match_rate", Unit: "frac", Better: "higher"},
	{Name: "estimator.isd_err_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "dsp.band_decimate_ns_per_session_s", Unit: "ns", Better: "lower"},
	{Name: "dsp.coarse_correlate_ns_per_session_s", Unit: "ns", Better: "lower"},
	{Name: "pn.inject_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "serverpipe.stream_next_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "serverpipe.match_ns_per_chat", Unit: "ns", Better: "lower"},
	{Name: "serverpipe.pipeline_ns_per_session_s", Unit: "ns", Better: "lower"},
	{Name: "serverpipe.markers_expired", Unit: "count", Better: "lower"},
	{Name: "compensator.offer_ns_per_measurement", Unit: "ns", Better: "lower"},
	{Name: "compensator.actions_per_session", Unit: "count", Better: "lower"},
	{Name: "compensator.first_action_miss_frac", Unit: "frac", Better: "lower"},
	{Name: "compensator.isd_tail_abs_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "compensator.reconverge_s_p50", Unit: "s", Better: "lower"},
	{Name: "loadgen.tick_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.socket_drops", Unit: "count", Better: "lower"},
	{Name: "loadgen.host_steal_frac", Unit: "frac", Better: "lower"},
	{Name: "layers.coverage_frac", Unit: "frac", Better: "higher"},
	{Name: "layers.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// checkComplete verifies that m holds exactly the table's metrics, each
// with the table's unit.
func checkComplete(m Metrics, table []SpecMetric) error {
	if len(m) != len(table) {
		return fmt.Errorf("%d metrics reported, %d declared", len(m), len(table))
	}
	for _, t := range table {
		got, ok := m[t.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", t.Name)
		}
		if got.Unit != t.Unit {
			return fmt.Errorf("metric %s reported in %q, declared in %q", t.Name, got.Unit, t.Unit)
		}
	}
	return nil
}

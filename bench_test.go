// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one per experiment, at Standard scale — a reduced but
// representative workload; run `go run ./cmd/ekho-bench -run all -scale
// full` for the paper's full 30-clip / 6×5-minute configuration).
//
// Each benchmark reports headline metrics from the experiment's report via
// b.ReportMetric so regression runs can track the reproduced results, and
// micro-benchmarks of the hot paths live next to their packages.
package ekho_test

import (
	"testing"

	"ekho/internal/experiments"
	"ekho/internal/hub"
	"ekho/internal/transport"
)

// runExperiment executes one experiment per benchmark iteration and
// reports the named metrics.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	run, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		report := run(experiments.Standard)
		if len(report.Rows) == 0 {
			b.Fatalf("%s produced no output", id)
		}
		for key, unit := range metrics {
			if v, ok := report.Values[key]; ok {
				b.ReportMetric(v, unit)
			}
		}
	}
}

// BenchmarkFig2EchoThreshold regenerates Figure 2: DCR opinion scores for
// echoes across delays and stimulus categories.
func BenchmarkFig2EchoThreshold(b *testing.B) {
	runExperiment(b, "fig2", map[string]string{
		"speech_10": "DCR@10ms",
	})
}

// BenchmarkTable1LatencyBreakdown regenerates Table 1: per-component
// latency ranges and the RTT-asymmetry clock error.
func BenchmarkTable1LatencyBreakdown(b *testing.B) {
	runExperiment(b, "table1", map[string]string{
		"rtt_err_hi_ms": "ms-rtt-err",
	})
}

// BenchmarkFig5CorrelationStages regenerates Figure 5: the raw, normalized
// and envelope stages of marker detection.
func BenchmarkFig5CorrelationStages(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"norm_peak_to_bg": "peak/bg",
	})
}

// BenchmarkFig6MarkerMatching regenerates Figure 6: timestamp alignment
// recovers positive and negative ISDs exactly.
func BenchmarkFig6MarkerMatching(b *testing.B) {
	runExperiment(b, "fig6", map[string]string{
		"max_abs_err_ms": "ms-err",
	})
}

// BenchmarkFig8EndToEndCDF regenerates Figure 8: the |ISD| CDF across
// end-to-end sessions with and without Ekho.
func BenchmarkFig8EndToEndCDF(b *testing.B) {
	runExperiment(b, "fig8", map[string]string{
		"on_below_10ms_pct":  "%below10ms-on",
		"off_below_50ms_pct": "%below50ms-off",
	})
}

// BenchmarkFig9SessionTrace regenerates Figure 9: the example session with
// scripted loss events.
func BenchmarkFig9SessionTrace(b *testing.B) {
	runExperiment(b, "fig9", map[string]string{
		"initial_isd_ms":      "ms-initial",
		"first_action_frames": "frames-corrected",
	})
}

// BenchmarkFig10MarkerAudibility regenerates Figure 10: marker audibility
// DCR vs relative power C.
func BenchmarkFig10MarkerAudibility(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"c_2.5": "DCR@C2.5",
	})
}

// BenchmarkFig11MarkerDetection regenerates Figure 11: detection rate and
// ISD error across marker volumes.
func BenchmarkFig11MarkerDetection(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"rate_mean_0.5":  "rate@C0.5",
		"err_p99_us_0.5": "us-p99@C0.5",
	})
}

// BenchmarkFig12EkhoVsGCCPHAT regenerates Figure 12: measurement rate vs
// GCC-PHAT under background chatter.
func BenchmarkFig12EkhoVsGCCPHAT(b *testing.B) {
	runExperiment(b, "fig12", map[string]string{
		"ekho_rate_mean_med": "rate-ekho-med",
		"gcc_rate_mean_med":  "rate-gcc-med",
	})
}

// BenchmarkFig13MutedScreen regenerates Figure 13: constant-amplitude
// markers for video-to-audio sync with the screen muted.
func BenchmarkFig13MutedScreen(b *testing.B) {
	runExperiment(b, "fig13", map[string]string{
		"dba_at_15db": "dBA@15dB",
	})
}

// BenchmarkFig14Microphones regenerates Figure 14 (Appendix B): the
// microphone-quality ablation.
func BenchmarkFig14Microphones(b *testing.B) {
	runExperiment(b, "fig14", map[string]string{
		"rate_mean_2": "rate-samsung",
	})
}

// BenchmarkFig15Encoding regenerates Figure 15 (Appendix C): the encoding
// ablation.
func BenchmarkFig15Encoding(b *testing.B) {
	runExperiment(b, "fig15", map[string]string{
		"rate_mean_3": "rate-24kULL",
	})
}

// BenchmarkFig17MicResponses regenerates Figure 17 (Appendix E): the
// microphone frequency responses.
func BenchmarkFig17MicResponses(b *testing.B) {
	runExperiment(b, "fig17", map[string]string{
		"swing_db_2": "dB-swing-samsung",
	})
}

// BenchmarkTable2Corpus regenerates Table 2: the evaluation corpus.
func BenchmarkTable2Corpus(b *testing.B) {
	runExperiment(b, "table2", map[string]string{
		"clips": "clips",
	})
}

// BenchmarkAppendixAReliability regenerates Appendix A: analytic false-
// positive rates validated by Monte Carlo.
func BenchmarkAppendixAReliability(b *testing.B) {
	runExperiment(b, "appa", map[string]string{
		"mtbf_hours_theta5": "h-between-false-peaks",
	})
}

// BenchmarkAblationDesignChoices regenerates the design-choice ablations
// (marker band, marker length, peak threshold) from DESIGN.md.
func BenchmarkAblationDesignChoices(b *testing.B) {
	runExperiment(b, "ablation", map[string]string{
		"band_paper_rate": "rate-6-12kHz",
		"band_low_rate":   "rate-1-5kHz",
	})
}

// BenchmarkImplProfile regenerates the §5.2 implementation profile (CPU
// fraction and memory for real-time operation).
func BenchmarkImplProfile(b *testing.B) {
	runExperiment(b, "impl", map[string]string{
		"cpu_core_pct": "%core",
		"heap_mib":     "MiB-heap",
	})
}

// BenchmarkExtensions measures the beyond-paper features: haptics skew,
// multi-screen sync and PLC-style insertion quality.
func BenchmarkExtensions(b *testing.B) {
	runExperimentHelper(b)
}

// BenchmarkDriftCompensation regenerates the clock-drift sweep
// (DESIGN.md §7): micro-resampling vs level-only compensation under
// sample-rate offsets. The headline metrics are the +100 ppm acceptance
// pair — tail |ISD| must stay under the 10 ms bound and the residual slope
// near zero.
func BenchmarkDriftCompensation(b *testing.B) {
	runExperiment(b, "drift", map[string]string{
		"tail_max_ms_drift_100": "ms-tail-max",
		"resid_ppm_drift_100":   "ppm-resid",
	})
}

func runExperimentHelper(b *testing.B) {
	runExperiment(b, "ext", map[string]string{
		"haptic_skew_p95_ms":   "ms-haptic-p95",
		"multi_insync_min_pct": "%multi-insync",
	})
}

// BenchmarkHubDemux measures the hub's packet demultiplexing path alone:
// chat packets for 64 registered (but not yet streaming) sessions are
// dispatched one at a time, so the cost is the lock, the registry lookup
// and the stats update without any DSP behind it.
func BenchmarkHubDemux(b *testing.B) {
	const sessions = 64
	mem := hub.NewMemNet()
	conn := mem.Endpoint("hub")
	h := hub.New(hub.Config{
		Capacity:    sessions,
		TickEvery:   -1,
		IdleTimeout: -1,
	}, conn)
	done := make(chan error, 1)
	go func() { done <- h.Serve() }()
	from := mem.Endpoint("bench-client").LocalAddr()
	msgs := make([]transport.Message, sessions)
	for i := range msgs {
		id := uint32(i + 1)
		h.Dispatch(transport.Message{
			Type:    transport.TypeHello,
			Session: id,
			Hello:   transport.Hello{Session: id, Role: transport.RoleScreen},
			From:    from,
		})
		msgs[i] = transport.Message{
			Type:    transport.TypeChat,
			Session: id,
			Chat:    transport.Chat{Session: id},
			From:    from,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Dispatch(msgs[i%sessions])
	}
	b.StopTimer()
	h.Close()
	if err := <-done; err != nil {
		b.Fatalf("hub serve: %v", err)
	}
	if got := h.Stats().Admitted; got != sessions {
		b.Fatalf("admitted %d sessions, want %d", got, sessions)
	}
}

package experiments

import (
	"math"
	"testing"
)

// The detection-sweep and end-to-end experiments are heavier; they run at
// Quick scale here and at Standard scale in the benchmarks.

func TestFig11Shape(t *testing.T) {
	r := mustRun(t, "fig11")
	// C = 0.5 detects everything with sub-ms p99 error.
	if r.Values["rate_mean_0.5"] < 0.95 {
		t.Fatalf("C=0.5 mean rate %g", r.Values["rate_mean_0.5"])
	}
	if r.Values["err_p99_us_0.5"] > 1000 {
		t.Fatalf("C=0.5 p99 error %g us", r.Values["err_p99_us_0.5"])
	}
	// C = 0.1 is worse than C = 0.5 on detection rate.
	if r.Values["rate_mean_0.1"] > r.Values["rate_mean_0.5"]+1e-9 {
		t.Fatalf("C=0.1 rate %g should not beat C=0.5 %g",
			r.Values["rate_mean_0.1"], r.Values["rate_mean_0.5"])
	}
}

func TestFig12Shape(t *testing.T) {
	r := mustRun(t, "fig12")
	// Ekho must dominate GCC-PHAT under chatter.
	if r.Values["ekho_rate_mean_med"] <= r.Values["gcc_rate_mean_med"] {
		t.Fatalf("ekho %g vs gcc %g under med chat",
			r.Values["ekho_rate_mean_med"], r.Values["gcc_rate_mean_med"])
	}
	if r.Values["ekho_rate_mean_med"] < 0.7 {
		t.Fatalf("ekho rate under chatter %g too low", r.Values["ekho_rate_mean_med"])
	}
	// GCC-PHAT loses most clips under chatter (paper: >75% no detection;
	// require a substantial fraction here).
	if r.Values["gcc_rate_mean_med"] > 0.6 {
		t.Fatalf("gcc rate under med chat %g suspiciously high", r.Values["gcc_rate_mean_med"])
	}
}

func TestFig13Shape(t *testing.T) {
	r := mustRun(t, "fig13")
	// Every mic reaches full detection at some amplitude <= 9 dB.
	for mic := 0; mic < 3; mic++ {
		min := r.Values[keyf("min_detect_amp_%d", mic)]
		if min < 0 || min > 9 {
			t.Fatalf("mic %d min detect amplitude %g", mic, min)
		}
	}
	// At 15 dB the marker stays below a quiet library's 40 dBA (paper).
	if v, ok := r.Values["dba_at_15db"]; ok && v >= 40 {
		t.Fatalf("marker at 15 dB reads %g dBA, want < 40", v)
	}
}

func TestFig14Shape(t *testing.T) {
	r := mustRun(t, "fig14")
	for mic := 0; mic < 3; mic++ {
		if r.Values[keyf("rate_mean_%d", mic)] < 0.95 {
			t.Fatalf("mic %d rate %g", mic, r.Values[keyf("rate_mean_%d", mic)])
		}
		if r.Values[keyf("err_p99_us_%d", mic)] > 1000 {
			t.Fatalf("mic %d p99 %g us", mic, r.Values[keyf("err_p99_us_%d", mic)])
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := mustRun(t, "fig15")
	for pi := 0; pi < 4; pi++ {
		if r.Values[keyf("rate_mean_%d", pi)] < 0.85 {
			t.Fatalf("profile %d rate %g", pi, r.Values[keyf("rate_mean_%d", pi)])
		}
	}
	// Lossless should not be worse than 24 kbps ULL.
	if r.Values["rate_mean_0"] < r.Values["rate_mean_3"]-1e-9 {
		t.Fatalf("lossless %g vs ULL %g", r.Values["rate_mean_0"], r.Values["rate_mean_3"])
	}
}

func TestFig8Shape(t *testing.T) {
	r := mustRun(t, "fig8")
	if r.Values["on_below_10ms_pct"] < 60 {
		t.Fatalf("Ekho ON below-10ms %g%% (quick scale)", r.Values["on_below_10ms_pct"])
	}
	if r.Values["off_below_50ms_pct"] > 5 {
		t.Fatalf("Ekho OFF below-50ms %g%% should be ~0", r.Values["off_below_50ms_pct"])
	}
	if r.Values["off_min_ms"] < 50 {
		t.Fatalf("Ekho OFF min ISD %g ms should never reach 50", r.Values["off_min_ms"])
	}
}

func TestFig9Shape(t *testing.T) {
	r := mustRun(t, "fig9")
	if math.Abs(r.Values["initial_isd_ms"]) < 100 {
		t.Fatalf("initial ISD %g ms should be large", r.Values["initial_isd_ms"])
	}
	if r.Values["first_action_frames"] < 5 {
		t.Fatalf("first correction %g frames", r.Values["first_action_frames"])
	}
	if math.Abs(r.Values["jump1_ms"]-20) > 10 {
		t.Fatalf("loss1 jump %g ms want ~20", r.Values["jump1_ms"])
	}
	if math.Abs(r.Values["jump2_ms"]+40) > 15 {
		t.Fatalf("loss2 jump %g ms want ~-40", r.Values["jump2_ms"])
	}
	if math.IsNaN(r.Values["resync1_s"]) || r.Values["resync1_s"] > 12 {
		t.Fatalf("resync1 %g s", r.Values["resync1_s"])
	}
	if math.IsNaN(r.Values["resync2_s"]) || r.Values["resync2_s"] > 12 {
		t.Fatalf("resync2 %g s", r.Values["resync2_s"])
	}
	if math.Abs(r.Values["final_isd_ms"]) > 10 {
		t.Fatalf("final ISD %g ms", r.Values["final_isd_ms"])
	}
}

func TestAblationShape(t *testing.T) {
	r := mustRun(t, "ablation")
	// The paper's band choice must beat the low-band variant under chatter.
	if r.Values["band_paper_rate"] < r.Values["band_low_rate"]+0.2 {
		t.Fatalf("6-12 kHz rate %g should clearly beat 1-5 kHz %g",
			r.Values["band_paper_rate"], r.Values["band_low_rate"])
	}
	// Longer markers give stronger peaks (§4.2).
	if !(r.Values["len_strength_0.25"] < r.Values["len_strength_1"]) {
		t.Fatalf("peak strength not monotone in L: %g vs %g",
			r.Values["len_strength_0.25"], r.Values["len_strength_1"])
	}
	// θ=5 retains detections; θ=10 loses most.
	if r.Values["theta_rate_5"] < 0.8 {
		t.Fatalf("theta=5 rate %g", r.Values["theta_rate_5"])
	}
	if r.Values["theta_rate_10"] > r.Values["theta_rate_5"] {
		t.Fatal("theta=10 should not beat theta=5")
	}
}

func TestImplShape(t *testing.T) {
	r := mustRun(t, "impl")
	// Real-time headroom: the estimator must use well under one core
	// (the paper's C++ uses 2.5%; allow 50% for unoptimized Go + CI).
	if r.Values["cpu_core_pct"] > 50 {
		t.Fatalf("estimator CPU %g%% of a core — not real-time capable", r.Values["cpu_core_pct"])
	}
	if r.Values["injector_cpu_pct"] > 5 {
		t.Fatalf("injector CPU %g%%", r.Values["injector_cpu_pct"])
	}
	if r.Values["heap_mib"] > 200 {
		t.Fatalf("heap %g MiB", r.Values["heap_mib"])
	}
	if r.Values["measurements"] < 5 {
		t.Fatalf("only %g measurements", r.Values["measurements"])
	}
}

func TestAblationIntervalAliasing(t *testing.T) {
	r := mustRun(t, "ablation")
	if r.Values["interval_1s_err_ms"] > 1 {
		t.Fatalf("1 s interval should resolve 350 ms ISD: err %g ms", r.Values["interval_1s_err_ms"])
	}
	if r.Values["interval_05s_err_ms"] < 100 {
		t.Fatalf("0.5 s interval should alias badly on 350 ms ISD: err %g ms", r.Values["interval_05s_err_ms"])
	}
}

func TestExtensionsShape(t *testing.T) {
	r := mustRun(t, "ext")
	if r.Values["haptic_skew_p95_ms"] > 24 {
		t.Fatalf("haptic skew p95 %g ms above the perception threshold", r.Values["haptic_skew_p95_ms"])
	}
	if r.Values["haptic_matched_pct"] < 50 {
		t.Fatalf("haptic matched %g%%", r.Values["haptic_matched_pct"])
	}
	if r.Values["multi_insync_min_pct"] < 70 {
		t.Fatalf("multi-screen worst in-sync %g%%", r.Values["multi_insync_min_pct"])
	}
	if r.Values["plc_jump_ratio"] > 0.1 {
		t.Fatalf("interpolated insertion jump ratio %g should be <= 0.1", r.Values["plc_jump_ratio"])
	}
}
